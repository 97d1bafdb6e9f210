#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent,
                            std::uint64_t request_id) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::int64_t now = since_epoch(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, id, parent, request_id});
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = since_epoch(Clock::now());
}

std::uint32_t Tracer::record(std::string name, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent,
                             std::uint64_t request_id) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(
      Span{std::move(name), since_epoch(start), since_epoch(end), id, parent, request_id});
  return id;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  // Children grouped by parent id, as intervals.
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[i] = static_cast<double>(duration - covered);
  }
  return out;
}

std::vector<SpanTotals> Tracer::totals() const {
  const std::vector<double> self = self_times_ns(spans_);
  std::vector<SpanTotals> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(SpanTotals{s.name});
    SpanTotals& t = out[it->second];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += self[i] / 1e6;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"id\": %u, "
                 "\"parent\": %u, \"request_id\": %llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent,
                 static_cast<unsigned long long>(s.request_id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

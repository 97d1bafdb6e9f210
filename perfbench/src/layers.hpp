// Per-layer timings for the traced run: the math, ec, crypto, pairing, cls,
// kgc and netd entry points, each timed on inputs drawn from the calling
// workload's own corpus (its signers, messages and signatures), so a layer
// number describes the operands that workload actually feeds the layer.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cls/keys.hpp"
#include "crypto/encoding.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerInputs {
  const mccls::cls::Kgc* kgc = nullptr;
  std::vector<mccls::cls::UserKeys> signers;  ///< McCLS keys, at least 4
  std::vector<mccls::crypto::Bytes> messages; ///< at least 16
  /// A frame as the workload sends it (for the netd echo round trip).
  mccls::crypto::Bytes frame;
};

/// Names of every metric measure_layers() can write.
const std::vector<std::string>& micro_layer_metrics();

/// The micro_layer_metrics() on `workload`'s path (perfbench/README.md has
/// the same table); empty for a workload that takes no micro-timings.
const std::vector<std::string>& micro_layers_of(const std::string& workload);

/// Times the micro_layers_of(`workload`) entries and stores them in `out`;
/// the others are not timed. On-disk state (a scratch kgcd) goes under
/// `tmp_dir`. Uses at most two threads (the caller's and one netd loop).
void measure_layers(const std::string& workload, const LayerInputs& in,
                    const std::string& tmp_dir, Tracer& tracer,
                    std::map<std::string, double>& out);

}  // namespace perfbench

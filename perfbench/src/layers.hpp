// Per-layer figures of the traced run: host cost of single public calls
// of the hash, record-page codec, cache and NAND layers, timed on the
// workload's own keys and pages.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "workload_spec.hpp"

namespace perfbench {

struct CallCosts {
  double signature_ns = 0;
  double probe_hit_ns = 0;
  double probe_miss_ns = 0;
  double probe_len_mean = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double cache_lookup_ns = 0;
  double nand_read_ns = 0;
  double nand_program_ns = 0;
};

/// Times each call over a fixed number of repetitions. `occupancy` is the
/// index's measured fill, used to fill the record page the probe and the
/// codec run on.
CallCosts measure_call_costs(const WorkloadSpec& w, std::span<const Op> ops, double occupancy);

/// Lines in every regular file under `dir` (0 when it does not exist).
std::uint64_t count_lines(const std::string& dir);

}  // namespace perfbench

// The traced pass: one bench per layer, each calling that layer's public
// entry points at a workload's shape, with a span around every call. Spans
// live in memory and are written out once, at the end.
//
// A span's self time is its duration minus its child spans, less the
// calibrated cost of taking one span (two clock reads). steady_clock can
// advance in steps of about 10 ns, so a span around a cheap call covers a
// batch of `units` calls and reports self time per call. Where a bench has
// to run a real lower layer (the MAC benches run real PHYs and a channel;
// the HACK bench runs real ROHC), the lower layer's cost, measured by its
// own bench at the same shape, is subtracted from each call.
#ifndef HACKBENCH_LAYERS_H_
#define HACKBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace hackbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  // `name` must outlive the tracer (the benches pass string literals).
  // `units` is the number of calls the span covers.
  uint32_t Begin(const char* name, uint32_t units = 1) {
    uint32_t id = static_cast<uint32_t>(spans_.size());
    uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{parent, units, name, Now(), 0});
    open_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  size_t size() const { return spans_.size(); }
  // Self time per call (ns) of every span named `name`, in the order they
  // began, less the per-span clock cost once Calibrate() has run.
  std::vector<double> SelfTimes(std::string_view name) const;
  // Calls covered by the spans named `name`.
  uint64_t Calls(std::string_view name) const;
  // Measures the cost of an empty span; later SelfTimes subtract it.
  void Calibrate(int samples);
  // Tab-separated: id, parent (-1 for none), name, units, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t parent;
    uint32_t units;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  double overhead_ns_ = 0.0;
};

struct LayerResult {
  std::string name;  // the per-layer metric, e.g. "sim.ns_per_event"
  double median_ns;  // over spans, of self time per call
  double p99_ns;
  uint64_t calls;
};

// Runs every layer bench at `w`'s shape (station count, radio positions at
// `seed`, propagation, MAC configuration) and returns one result per traced
// metric.
std::vector<LayerResult> RunLayerBenches(const Workload& w, uint64_t seed,
                                         Tracer& tracer);

}  // namespace hackbench

#endif  // HACKBENCH_LAYERS_H_

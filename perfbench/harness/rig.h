#ifndef PERFBENCH_HARNESS_RIG_H_
#define PERFBENCH_HARNESS_RIG_H_

// One pass of a workload's trace through the front door:
// IngestClient -> IngestServer -> (RecoveryCoordinator) -> EspProcessor ->
// standing subscriptions, from one client connection, either closed loop
// (as fast as acks allow) or paced (each epoch sent at its due time).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/health.h"
#include "harness/decorators.h"
#include "harness/trace.h"
#include "harness/workloads.h"

namespace esp::perfbench {

struct PassConfig {
  bool traced = false;
  /// 0 = closed loop; otherwise epochs are due at this many per second.
  double paced_ticks_per_s = 0;
  /// Parent directory for the recovery journal and snapshots; each pass
  /// uses (and removes) a fresh subdirectory.
  std::string work_dir;
  /// Keep the final engine checkpoint and newest snapshot file bytes.
  bool keep_checkpoint = false;
  /// Set the deployment up and tear it down without sending anything.
  bool setup_only = false;
};

struct PassResult {
  double setup_s = 0;
  double wall_s = 0;  // First send to the last tick result.
  int64_t ticks_emitted = 0;
  int64_t client_errors = 0;
  int64_t mismatches = 0;  // Ticks whose digest differs from the reference.
  /// Readings rejected or shed, ticks failed or missing, client errors and
  /// mismatching ticks.
  int64_t failed = 0;
  std::string first_error;

  std::vector<uint64_t> digests;  // Per emitted tick.
  /// Paced: per tick, due time to its TickResult, and how late the
  /// generator started sending the epoch.
  std::vector<double> tick_latency_ms;
  std::vector<double> gen_late_ms;
  /// Paced: ticks emitted by the time the last epoch was due.
  int64_t emitted_at_last_due = 0;

  core::IngestStats ingest;
  core::PipelineHealth health;

  /// Traced passes only.
  std::unique_ptr<Tracer> tracer;
  LayerCounters counters;
  int64_t loop_cpu_ns = -1;
  size_t buffered_tuples_max = 0;

  std::string checkpoint_bytes;
  std::string snapshot_bytes;
};

/// Runs one front-door pass. `reference` (per-tick digests) may be null.
PassResult RunPass(const WorkloadTrace& trace, const PassConfig& config,
                   const std::vector<uint64_t>* reference);

struct ReferenceResult {
  std::vector<uint64_t> digests;
  /// `shelf` only: the paper's Equation (1) against ground truth.
  double average_relative_error = -1;
};

/// Pushes the trace directly into a fresh in-process EspProcessor, with no
/// front door, no recovery and no decorators.
StatusOr<ReferenceResult> RunReference(const WorkloadTrace& trace);

}  // namespace esp::perfbench

#endif  // PERFBENCH_HARNESS_RIG_H_

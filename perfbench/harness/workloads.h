#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

// The benchmark's workloads: their trace generators (which take the seed;
// the system only ever receives the generated tuples), their deployments
// and their per-tick subscription churn.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/engine.h"
#include "core/processor.h"
#include "core/recovery.h"
#include "harness/decorators.h"
#include "stream/tuple.h"

namespace esp::perfbench {

enum class Workload { kShelf, kMetro, kServing };

struct WorkloadInfo {
  Workload kind;
  const char* name;
  const char* why;
  int epochs;                   // Trace length; every phase sends all of it.
  double paced_ticks_per_s;     // Offered rate of the paced phase.
};

const std::vector<WorkloadInfo>& AllWorkloads();
StatusOr<WorkloadInfo> FindWorkload(const std::string& name);

/// One device type's readings for one epoch, sent as one batch frame.
struct Batch {
  std::string device_type;
  std::vector<stream::Tuple> readings;
};

/// One epoch: its batches, then a tick at `tick`.
struct Epoch {
  Timestamp tick;
  std::vector<Batch> batches;
};

struct Subscription {
  std::string tenant;
  std::string name;
  std::string text;
};

struct WorkloadTrace {
  WorkloadInfo info;
  uint64_t seed = 0;
  std::vector<Epoch> epochs;
  size_t readings = 0;
  /// `serving`: standing subscriptions registered at set-up, and how many
  /// of them unregister and re-register before each tick.
  std::vector<Subscription> subscriptions;
  size_t churn_per_tick = 0;
  /// `shelf`: ground-truth item count per epoch per (aisle, shelf), laid
  /// out as [epoch][aisle * 2 + shelf].
  int aisles = 0;
  std::vector<std::vector<int64_t>> shelf_truth;
};

/// Builds the workload's trace from `seed`. Deterministic in its inputs.
WorkloadTrace GenerateTrace(const WorkloadInfo& info, uint64_t seed);

/// Builds and starts the workload's EspProcessor. With a tracer, every
/// stage is wrapped in a timing decorator.
StatusOr<std::unique_ptr<core::EspProcessor>> BuildProcessor(
    const WorkloadTrace& trace, Tracer* tracer, LayerCounters* counters);

/// Recovery settings for workloads that run through RecoverySink.
std::optional<core::RecoveryOptions> RecoveryFor(const WorkloadTrace& trace,
                                                 const std::string& dir);

/// Registers the workload's standing subscriptions.
Status RegisterSubscriptions(const WorkloadTrace& trace,
                             core::StreamEngine* engine);

/// True when the workload runs a hook before each tick.
bool HasTickHook(const WorkloadTrace& trace);

/// The hook run before tick `tick`: unregisters and re-registers a
/// rotating handful of subscriptions.
Status BeforeTick(const WorkloadTrace& trace, core::StreamEngine* engine,
                  int64_t tick);

/// `shelf`: the paper's Query 1 over one tick's cleaned output (distinct
/// tags per aisle and shelf), appended with the matching ground truth.
Status AppendShelfCounts(const WorkloadTrace& trace, size_t epoch,
                         const core::TickResult& result,
                         std::vector<double>* reported,
                         std::vector<double>* truth);

}  // namespace esp::perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_

#ifndef PERFBENCH_HARNESS_DECORATORS_H_
#define PERFBENCH_HARNESS_DECORATORS_H_

// Decorators that time calls into each layer's public functions for the
// traced run. Each forwards every virtual to the object it wraps, so a
// traced deployment computes and checkpoints exactly what an untraced one
// does; only the spans and counters below are added.

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/processor.h"
#include "core/stage.h"
#include "harness/trace.h"
#include "net/ingest_server.h"

namespace esp::perfbench {

/// Work counted by the decorators. Written only on the thread that drives
/// the deployment (setup thread, then the server loop thread); read after
/// that thread has stopped.
struct LayerCounters {
  struct Stage {
    int64_t calls = 0;  // Evaluate calls, one per stage instance per tick.
    int64_t tuples_in = 0;
    int64_t tuples_out = 0;
  };
  std::array<Stage, 5> stages{};  // Indexed by core::StageKind.
  int64_t push_rejects = 0;
  int64_t registrations = 0;  // RegisterQuery calls, setup and churn.
};

/// Wraps `factory` so each stage it makes is timed under its kind's layer.
/// A null tracer returns the factory unchanged (the untraced deployment).
core::StageFactory TraceStages(core::StageFactory factory, Tracer* tracer,
                               LayerCounters* counters);

/// Wraps one stage (used for the Virtualize stage, which is not built from
/// a factory). A null tracer returns the stage unchanged.
std::unique_ptr<core::Stage> TraceStage(std::unique_ptr<core::Stage> stage,
                                        Tracer* tracer,
                                        LayerCounters* counters);

/// StreamEngine decorator: times Push, Tick and query (un)registration.
class TracedEngine : public core::StreamEngine {
 public:
  TracedEngine(core::EspProcessor* inner, Tracer* tracer,
               LayerCounters* counters)
      : inner_(inner), tracer_(tracer), counters_(counters) {}

  Status Push(const std::string& device_type, stream::Tuple raw) override;
  StatusOr<core::TickResult> Tick(Timestamp now) override;
  void SetExportGroupPartials(bool enabled) override {
    inner_->SetExportGroupPartials(enabled);
  }
  bool has_ticked() const override { return inner_->has_ticked(); }
  Timestamp last_tick() const override { return inner_->last_tick(); }
  StatusOr<stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const override {
    return inner_->TypeReadingSchema(device_type);
  }
  Status Checkpoint(core::CheckpointWriter& out) const override {
    return inner_->Checkpoint(out);
  }
  Status Restore(const core::CheckpointReader& in) override {
    return inner_->Restore(in);
  }
  core::RecoveryStats& mutable_recovery_stats() override {
    return inner_->mutable_recovery_stats();
  }
  core::IngestStats& mutable_ingest_stats() override {
    return inner_->mutable_ingest_stats();
  }
  void SetIngestStatsSource(core::IngestStatsSource source) override {
    inner_->SetIngestStatsSource(std::move(source));
  }
  core::PipelineHealth Health() const override { return inner_->Health(); }
  Status RegisterQuery(const std::string& tenant, const std::string& name,
                       const std::string& query_text) override;
  Status UnregisterQuery(const std::string& name) override;
  Status SetTenantBudgets(const std::string& tenant,
                          const cql::TenantBudgets& budgets) override {
    return inner_->SetTenantBudgets(tenant, budgets);
  }

 private:
  core::EspProcessor* inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// IngestSink decorator. Times Push/Tick, keeps the server loop thread's
/// current tick id for the span recorder, captures that thread's CPU clock,
/// and runs the workload's per-tick hook (subscription churn) on the loop
/// thread just before each tick, since registration shares the engine's
/// single-threaded contract; a failing hook fails its tick. With a null
/// tracer it only runs the hook.
class BenchSink : public net::IngestSink {
 public:
  using TickHook = std::function<Status(int64_t tick)>;

  BenchSink(net::IngestSink* inner, Tracer* tracer, TickHook before_tick)
      : inner_(inner), tracer_(tracer), before_tick_(std::move(before_tick)) {}

  Status Push(const std::string& device_type, stream::Tuple raw) override;
  StatusOr<core::TickResult> Tick(Timestamp now) override;
  StatusOr<stream::SchemaRef> ReadingSchema(
      const std::string& device_type) const override {
    return inner_->ReadingSchema(device_type);
  }
  void SetStatsSource(core::IngestStatsSource source) override {
    inner_->SetStatsSource(std::move(source));
  }

  /// CPU time of the loop thread since its first sink call, or -1 before
  /// that call. Safe from any thread.
  int64_t LoopCpuNs() const;

 private:
  void OnLoopThread();

  net::IngestSink* inner_;
  Tracer* tracer_;
  TickHook before_tick_;
  int64_t tick_ = 0;
  bool seen_ = false;
  clockid_t clock_{};
  int64_t cpu_start_ns_ = 0;
  std::atomic<bool> clock_ready_{false};
};

}  // namespace esp::perfbench

#endif  // PERFBENCH_HARNESS_DECORATORS_H_

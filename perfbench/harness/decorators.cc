#include "harness/decorators.h"

#include <pthread.h>

#include <utility>

namespace esp::perfbench {
namespace {

Layer LayerOf(core::StageKind kind) {
  switch (kind) {
    case core::StageKind::kPoint:
      return Layer::kPoint;
    case core::StageKind::kSmooth:
      return Layer::kSmooth;
    case core::StageKind::kMerge:
      return Layer::kMerge;
    case core::StageKind::kArbitrate:
      return Layer::kArbitrate;
    case core::StageKind::kVirtualize:
      return Layer::kVirtualize;
  }
  return Layer::kPoint;
}

/// Stage decorator. Takes the wrapped stage's kind and name, so checkpoint
/// blobs (keyed by stage name) are interchangeable with an untraced run's.
class TracedStage : public core::Stage {
 public:
  TracedStage(std::unique_ptr<core::Stage> inner, Tracer* tracer,
              LayerCounters* counters)
      : core::Stage(inner->kind(), inner->name()),
        inner_(std::move(inner)),
        tracer_(tracer),
        layer_(LayerOf(kind())),
        counters_(&counters->stages[static_cast<size_t>(kind())]) {
    output_schema_ = inner_->output_schema();
  }

  Status Bind(const cql::SchemaCatalog& inputs) override {
    Status status = inner_->Bind(inputs);
    output_schema_ = inner_->output_schema();
    return status;
  }

  Status Push(const std::string& input, stream::Tuple tuple) override {
    ScopedSpan span(tracer_, layer_);
    ++counters_->tuples_in;
    return inner_->Push(input, std::move(tuple));
  }

  StatusOr<stream::Relation> Evaluate(Timestamp now) override {
    ScopedSpan span(tracer_, layer_);
    ++counters_->calls;
    StatusOr<stream::Relation> out = inner_->Evaluate(now);
    if (out.ok()) {
      counters_->tuples_out += static_cast<int64_t>(out.value().size());
    }
    return out;
  }

  size_t buffered() const override { return inner_->buffered(); }
  Status SaveState(ByteWriter& w) const override {
    return inner_->SaveState(w);
  }
  Status LoadState(ByteReader& r) override { return inner_->LoadState(r); }

 private:
  std::unique_ptr<core::Stage> inner_;
  Tracer* tracer_;
  Layer layer_;
  LayerCounters::Stage* counters_;
};

}  // namespace

std::unique_ptr<core::Stage> TraceStage(std::unique_ptr<core::Stage> stage,
                                        Tracer* tracer,
                                        LayerCounters* counters) {
  if (tracer == nullptr || stage == nullptr) return stage;
  return std::make_unique<TracedStage>(std::move(stage), tracer, counters);
}

core::StageFactory TraceStages(core::StageFactory factory, Tracer* tracer,
                               LayerCounters* counters) {
  if (tracer == nullptr || !factory) return factory;
  return [factory = std::move(factory), tracer,
          counters]() -> StatusOr<std::unique_ptr<core::Stage>> {
    ESP_ASSIGN_OR_RETURN(std::unique_ptr<core::Stage> stage, factory());
    return TraceStage(std::move(stage), tracer, counters);
  };
}

Status TracedEngine::Push(const std::string& device_type, stream::Tuple raw) {
  ScopedSpan span(tracer_, Layer::kEnginePush);
  Status status = inner_->Push(device_type, std::move(raw));
  if (!status.ok()) ++counters_->push_rejects;
  return status;
}

StatusOr<core::TickResult> TracedEngine::Tick(Timestamp now) {
  ScopedSpan span(tracer_, Layer::kEngineTick);
  return inner_->Tick(now);
}

Status TracedEngine::RegisterQuery(const std::string& tenant,
                                   const std::string& name,
                                   const std::string& query_text) {
  ScopedSpan span(tracer_, Layer::kRegister);
  ++counters_->registrations;
  return inner_->RegisterQuery(tenant, name, query_text);
}

Status TracedEngine::UnregisterQuery(const std::string& name) {
  ScopedSpan span(tracer_, Layer::kRegister);
  return inner_->UnregisterQuery(name);
}

void BenchSink::OnLoopThread() {
  if (seen_) return;
  seen_ = true;
  if (pthread_getcpuclockid(pthread_self(), &clock_) == 0) {
    cpu_start_ns_ = ThreadCpuNs(clock_);
    clock_ready_.store(true, std::memory_order_release);
  }
  if (tracer_ != nullptr) tracer_->ForThisThread().SetTick(tick_);
}

int64_t BenchSink::LoopCpuNs() const {
  if (!clock_ready_.load(std::memory_order_acquire)) return -1;
  return ThreadCpuNs(clock_) - cpu_start_ns_;
}

Status BenchSink::Push(const std::string& device_type, stream::Tuple raw) {
  OnLoopThread();
  ScopedSpan span(tracer_, Layer::kSink);
  return inner_->Push(device_type, std::move(raw));
}

StatusOr<core::TickResult> BenchSink::Tick(Timestamp now) {
  OnLoopThread();
  StatusOr<core::TickResult> result = [&]() -> StatusOr<core::TickResult> {
    ScopedSpan span(tracer_, Layer::kSink);
    if (before_tick_) ESP_RETURN_IF_ERROR(before_tick_(tick_));
    return inner_->Tick(now);
  }();
  ++tick_;
  if (tracer_ != nullptr) tracer_->ForThisThread().SetTick(tick_);
  return result;
}

}  // namespace esp::perfbench

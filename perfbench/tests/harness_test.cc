// Tests of the benchmark harness itself: span arithmetic, generator
// determinism, and that the timing decorators change nothing the system
// computes or checkpoints. Run with: python3 perfbench/run.py --tests

#include <gtest/gtest.h>

#include "common/binio.h"
#include "harness/digest.h"
#include "harness/rig.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "stream/serialize.h"

namespace esp::perfbench {
namespace {

constexpr const char* kWorkDir = ".bench_build/work-tests";

TEST(ThreadSpansTest, SelfTimeSubtractsNestedChildren) {
  // Tick 0:  A [0, 100)
  //            B [10, 40)
  //              C [20, 30)
  //            B [50, 70)
  // Tick 1:  A [200, 260)
  //            C [210, 215)
  ThreadSpans spans(2);
  spans.SetTick(0);
  spans.Begin(Layer::kSink, 0);
  spans.Begin(Layer::kEngineTick, 10);
  spans.Begin(Layer::kSmooth, 20);
  spans.End(30);
  spans.End(40);
  spans.Begin(Layer::kEngineTick, 50);
  spans.End(70);
  spans.End(100);
  spans.SetTick(1);
  spans.Begin(Layer::kSink, 200);
  spans.Begin(Layer::kSmooth, 210);
  spans.End(215);
  spans.End(260);

  EXPECT_EQ(spans.At(0, Layer::kSink).total_ns, 100);
  EXPECT_EQ(spans.At(0, Layer::kSink).self_ns, 50);
  EXPECT_EQ(spans.At(0, Layer::kEngineTick).total_ns, 50);
  EXPECT_EQ(spans.At(0, Layer::kEngineTick).self_ns, 40);
  EXPECT_EQ(spans.At(0, Layer::kEngineTick).calls, 2);
  EXPECT_EQ(spans.At(0, Layer::kSmooth).self_ns, 10);
  EXPECT_EQ(spans.At(1, Layer::kSink).self_ns, 55);
  EXPECT_EQ(spans.At(1, Layer::kSmooth).total_ns, 5);

  const LayerTotals sink = spans.Sum(Layer::kSink);
  EXPECT_EQ(sink.total_ns, 160);
  EXPECT_EQ(sink.self_ns, 105);
  EXPECT_EQ(sink.calls, 2);
  // Self times across layers add up to the root spans' durations.
  int64_t self_sum = 0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    self_sum += spans.Sum(static_cast<Layer>(l)).self_ns;
  }
  EXPECT_EQ(self_sum, 160);
}

TEST(ThreadSpansTest, OutOfRangeTicksAndDeepNestingAreContained) {
  ThreadSpans spans(1);
  spans.SetTick(7);  // Past the last tick: charged to the setup slot.
  spans.Begin(Layer::kRegister, 0);
  spans.End(4);
  EXPECT_EQ(spans.At(spans.setup_slot(), Layer::kRegister).total_ns, 4);

  spans.SetTick(0);
  const int depth = ThreadSpans::kMaxDepth + 3;
  for (int i = 0; i < depth; ++i) spans.Begin(Layer::kPoint, i);
  for (int i = 0; i < depth; ++i) spans.End(100 + i);
  EXPECT_EQ(spans.overflowed(), 3);
  EXPECT_EQ(spans.At(0, Layer::kPoint).calls, ThreadSpans::kMaxDepth);
  // The skipped innermost spans consume the first Ends, so the recorded
  // chain's self times still add up to the outermost span,
  // [0, 100 + depth - 1).
  EXPECT_EQ(spans.Sum(Layer::kPoint).self_ns, 100 + depth - 1);
}

std::string Serialize(const WorkloadTrace& trace) {
  ByteWriter w;
  for (const Epoch& epoch : trace.epochs) {
    w.WriteI64(epoch.tick.micros());
    for (const Batch& batch : epoch.batches) {
      w.WriteString(batch.device_type);
      for (const stream::Tuple& tuple : batch.readings) {
        stream::WriteTuple(w, tuple);
      }
    }
  }
  for (const Subscription& sub : trace.subscriptions) {
    w.WriteString(sub.tenant);
    w.WriteString(sub.name);
    w.WriteString(sub.text);
  }
  for (const auto& truth : trace.shelf_truth) {
    for (const int64_t t : truth) w.WriteI64(t);
  }
  return std::move(w).Release();
}

WorkloadInfo Shortened(const std::string& name, int epochs) {
  WorkloadInfo info = FindWorkload(name).value();
  info.epochs = epochs;
  return info;
}

TEST(GeneratorTest, SameSeedSameTraceOtherSeedOtherTrace) {
  for (const WorkloadInfo& full : AllWorkloads()) {
    SCOPED_TRACE(full.name);
    const WorkloadInfo info = Shortened(full.name, 150);
    const std::string a = Serialize(GenerateTrace(info, 5));
    const std::string b = Serialize(GenerateTrace(info, 5));
    const std::string c = Serialize(GenerateTrace(info, 6));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
  }
}

TEST(GeneratorTest, TracesHaveTheStatedShape) {
  for (const WorkloadInfo& info : AllWorkloads()) {
    SCOPED_TRACE(info.name);
    const WorkloadTrace trace = GenerateTrace(info, 1);
    EXPECT_EQ(trace.epochs.size(), static_cast<size_t>(info.epochs));
    // The paced phase needs at least 1000 ticks for a p99 with ten samples
    // beyond it.
    EXPECT_GE(trace.epochs.size(), 1000u);
    EXPECT_GT(trace.readings, 0u);
    for (size_t e = 1; e < trace.epochs.size(); ++e) {
      ASSERT_LT(trace.epochs[e - 1].tick, trace.epochs[e].tick);
    }
  }
}

/// Traced and untraced front-door passes produce the same outputs, and on
/// `metro` the same engine checkpoint and the same newest snapshot file,
/// which only holds if every Stage virtual (Bind, buffered, SaveState,
/// LoadState) is forwarded by the decorator.
TEST(DecoratorTest, TracedRunIsBitwiseTransparent) {
  for (const char* name : {"shelf", "metro", "serving"}) {
    SCOPED_TRACE(name);
    const WorkloadTrace trace = GenerateTrace(Shortened(name, 250), 3);
    const StatusOr<ReferenceResult> reference = RunReference(trace);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    PassConfig config;
    config.work_dir = kWorkDir;
    config.keep_checkpoint = true;
    const PassResult plain = RunPass(trace, config, &reference->digests);
    config.traced = true;
    const PassResult traced = RunPass(trace, config, &reference->digests);

    EXPECT_EQ(plain.failed, 0) << plain.first_error;
    EXPECT_EQ(traced.failed, 0) << traced.first_error;
    ASSERT_EQ(plain.digests.size(), trace.epochs.size());
    EXPECT_EQ(plain.digests, traced.digests);
    EXPECT_EQ(plain.digests, reference->digests);
    EXPECT_FALSE(plain.checkpoint_bytes.empty());
    EXPECT_EQ(plain.checkpoint_bytes, traced.checkpoint_bytes);
    EXPECT_EQ(plain.snapshot_bytes, traced.snapshot_bytes);
    if (std::string(name) == "metro") {
      EXPECT_FALSE(plain.snapshot_bytes.empty());
      EXPECT_EQ(traced.health.recovery.checkpoints_written, 2);
    }
    // The traced pass recorded spans on the loop thread.
    ASSERT_NE(traced.tracer, nullptr);
    int64_t sink_calls = 0;
    for (const ThreadSpans* spans : traced.tracer->threads()) {
      sink_calls += spans->Sum(Layer::kSink).calls;
    }
    EXPECT_EQ(sink_calls,
              static_cast<int64_t>(trace.readings + trace.epochs.size()));
  }
}

TEST(DigestTest, DistinguishesOutputs) {
  core::TickResult a;
  core::TickResult b;
  b.per_type.emplace_back("rfid", stream::Relation());
  EXPECT_NE(DigestTick(a), DigestTick(b));
  EXPECT_EQ(DigestTick(a), DigestTick(core::TickResult()));
  EXPECT_NE(DigestRun({1, 2}), DigestRun({2, 1}));
}

}  // namespace
}  // namespace esp::perfbench

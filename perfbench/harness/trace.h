#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// Tick-scoped span recorder for the traced benchmark run.
//
// Each thread that records spans owns a fixed array of per-(tick, layer)
// accumulators, sized before the run starts, so recording never allocates.
// A span's self time is its duration minus the time covered by the spans
// nested inside it on the same thread; the nesting is tracked with a small
// fixed stack, so only the accumulators, not the spans themselves, are kept.

#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <vector>

namespace esp::perfbench {

enum class Layer : uint8_t {
  kClient,      // IngestClient::PushBatch / PushTick / Flush.
  kSink,        // IngestSink::Push / Tick (journal on RecoverySink).
  kEnginePush,  // StreamEngine::Push.
  kEngineTick,  // StreamEngine::Tick.
  kPoint,       // Stage::Push / Evaluate, one layer per stage kind.
  kSmooth,
  kMerge,
  kArbitrate,
  kVirtualize,
  kRegister,    // StreamEngine::RegisterQuery / UnregisterQuery.
  kConsumer,    // The benchmark's on_tick consumer (stamp + output digest).
  kCount,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Accumulated time of one layer within one tick on one thread.
struct LayerTotals {
  int64_t total_ns = 0;  // Sum of span durations.
  int64_t self_ns = 0;   // Durations minus nested child spans.
  int64_t calls = 0;
};

/// One thread's recording state. Not thread-safe: only its owner records.
class ThreadSpans {
 public:
  static constexpr int kMaxDepth = 16;

  /// `num_ticks` tick slots plus one setup slot (spans outside any tick).
  explicit ThreadSpans(size_t num_ticks);

  /// Spans opened from now on are charged to `tick`; out-of-range ticks
  /// fall into the setup slot.
  void SetTick(int64_t tick);

  void Begin(Layer layer, int64_t now_ns);
  void End(int64_t now_ns);

  /// Accumulator for (tick, layer); tick == num_ticks() is the setup slot.
  const LayerTotals& At(size_t tick, Layer layer) const {
    return slots_[tick * kNumLayers + static_cast<size_t>(layer)];
  }
  size_t num_ticks() const { return num_ticks_; }
  size_t setup_slot() const { return num_ticks_; }
  /// Spans that could not be recorded because the stack was full.
  int64_t overflowed() const { return overflowed_; }

  /// Sum of one layer over every slot, setup included.
  LayerTotals Sum(Layer layer) const;

 private:
  struct Frame {
    Layer layer;
    size_t slot;
    int64_t start_ns;
    int64_t child_ns;
  };

  size_t num_ticks_;
  size_t tick_slot_;
  std::vector<LayerTotals> slots_;
  Frame stack_[kMaxDepth];
  int depth_ = 0;
  int skipped_ = 0;  // Begin calls past kMaxDepth still awaiting End.
  int64_t overflowed_ = 0;
};

/// Owns one ThreadSpans per recording thread.
class Tracer {
 public:
  explicit Tracer(size_t num_ticks);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer, created on the thread's first call.
  ThreadSpans& ForThisThread();

  /// Every thread's buffer. Call only after the recording threads are done
  /// (joined, or quiescent behind a happens-before edge).
  std::vector<const ThreadSpans*> threads() const;

  size_t num_ticks() const { return num_ticks_; }

 private:
  size_t num_ticks_;
  uint64_t id_;  // Process-unique, keys each thread's cached buffer.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span on the calling thread; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : spans_(tracer == nullptr ? nullptr : &tracer->ForThisThread()) {
    if (spans_ != nullptr) spans_->Begin(layer, NowNs());
  }
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* spans_;
};

/// CPU time of the thread whose clock id this is, in nanoseconds.
int64_t ThreadCpuNs(clockid_t clock);

}  // namespace esp::perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_

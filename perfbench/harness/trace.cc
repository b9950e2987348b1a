#include "harness/trace.h"

#include <atomic>
#include <chrono>

namespace esp::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadSpans::ThreadSpans(size_t num_ticks)
    : num_ticks_(num_ticks),
      tick_slot_(num_ticks),
      slots_((num_ticks + 1) * kNumLayers),
      stack_{} {}

void ThreadSpans::SetTick(int64_t tick) {
  tick_slot_ = tick >= 0 && static_cast<size_t>(tick) < num_ticks_
                   ? static_cast<size_t>(tick)
                   : num_ticks_;
}

void ThreadSpans::Begin(Layer layer, int64_t now_ns) {
  if (depth_ == kMaxDepth) {
    ++skipped_;
    ++overflowed_;
    return;
  }
  stack_[depth_++] = Frame{layer, tick_slot_, now_ns, 0};
}

void ThreadSpans::End(int64_t now_ns) {
  if (skipped_ > 0) {
    --skipped_;
    return;
  }
  if (depth_ == 0) return;
  const Frame frame = stack_[--depth_];
  const int64_t duration = now_ns - frame.start_ns;
  LayerTotals& totals =
      slots_[frame.slot * kNumLayers + static_cast<size_t>(frame.layer)];
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  ++totals.calls;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
}

LayerTotals ThreadSpans::Sum(Layer layer) const {
  LayerTotals sum;
  for (size_t tick = 0; tick <= num_ticks_; ++tick) {
    const LayerTotals& t = At(tick, layer);
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
    sum.calls += t.calls;
  }
  return sum;
}

namespace {
std::atomic<uint64_t> next_tracer_id{1};
}  // namespace

Tracer::Tracer(size_t num_ticks)
    : num_ticks_(num_ticks), id_(next_tracer_id.fetch_add(1)) {}

ThreadSpans& Tracer::ForThisThread() {
  thread_local uint64_t cached_id = 0;
  thread_local ThreadSpans* cached = nullptr;
  if (cached_id != id_) {
    auto spans = std::make_unique<ThreadSpans>(num_ticks_);
    cached = spans.get();
    cached_id = id_;
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::move(spans));
  }
  return *cached;
}

std::vector<const ThreadSpans*> Tracer::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadSpans*> out;
  for (const auto& spans : threads_) out.push_back(spans.get());
  return out;
}

int64_t ThreadCpuNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

}  // namespace esp::perfbench

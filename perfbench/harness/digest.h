#ifndef PERFBENCH_HARNESS_DIGEST_H_
#define PERFBENCH_HARNESS_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace esp::perfbench {

/// 64-bit FNV-1a over the tick's serialized output: every per-type relation,
/// the virtualized relation and every subscription result (tenant, name,
/// status code, rows), in emission order. Equal digests mean bitwise-equal
/// serialized outputs up to hash collision.
uint64_t DigestTick(const core::TickResult& result);

/// Folds a sequence of tick digests into one run digest.
uint64_t DigestRun(const std::vector<uint64_t>& ticks);

std::string DigestHex(uint64_t digest);

}  // namespace esp::perfbench

#endif  // PERFBENCH_HARNESS_DIGEST_H_

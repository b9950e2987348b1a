#include "harness/digest.h"

#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/binio.h"
#include "stream/serialize.h"

namespace esp::perfbench {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// Incremental FNV-1a; every field is length- or size-prefixed so field
/// boundaries are part of the digest.
struct Hasher {
  uint64_t h = kFnvOffset;

  void Bytes(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  }
  void U64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, sizeof(buf));
    Bytes(std::string_view(buf, sizeof(buf)));
  }
  void String(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
};

uint64_t HashRelation(const stream::Relation& relation) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(relation.size()));
  for (const stream::Tuple& tuple : relation.tuples()) {
    stream::WriteTuple(w, tuple);
  }
  Hasher h;
  h.Bytes(w.data());
  return h.h;
}

}  // namespace

uint64_t DigestTick(const core::TickResult& result) {
  Hasher h;
  h.U64(result.per_type.size());
  for (const auto& [type, relation] : result.per_type) {
    h.String(type);
    h.U64(HashRelation(relation));
  }
  h.U64(result.virtualized.has_value() ? 1 : 0);
  if (result.virtualized.has_value()) h.U64(HashRelation(*result.virtualized));
  // Subscriptions of one physical plan share one result relation: hash each
  // relation once and fold its hash in per subscription.
  std::unordered_map<const stream::Relation*, uint64_t> shared;
  shared.reserve(result.query_results.size());
  h.U64(result.query_results.size());
  for (const cql::SubscriptionResult& sub : result.query_results) {
    h.String(sub.tenant);
    h.String(sub.name);
    h.U64(static_cast<uint64_t>(sub.status.code()));
    const stream::Relation* rows = sub.result.get();
    if (rows == nullptr) {
      h.U64(0);
      continue;
    }
    auto [it, inserted] = shared.try_emplace(rows, 0);
    if (inserted) it->second = HashRelation(*rows);
    h.U64(it->second);
  }
  return h.h;
}

uint64_t DigestRun(const std::vector<uint64_t>& ticks) {
  Hasher h;
  for (const uint64_t d : ticks) h.U64(d);
  return h.h;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace esp::perfbench

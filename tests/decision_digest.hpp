// FNV-1a over every SlotDecision field that bench::streams_equal compares,
// shared by the golden decision-stream tests.
#pragma once

#include "birp/sim/decision.hpp"
#include "fnv1a.hpp"

namespace birp::testutil {

inline void hash_decision(Fnv1a& digest, const sim::SlotDecision& decision) {
  digest.range(decision.served.raw());
  digest.range(decision.kernel.raw());
  digest.range(decision.drops.raw());
  digest.value(static_cast<unsigned char>(decision.pad_partial_launches));
  digest.value(decision.flows.size());
  for (const auto& flow : decision.flows) {
    digest.value(flow.app);
    digest.value(flow.from);
    digest.value(flow.to);
    digest.value(flow.count);
  }
}

}  // namespace birp::testutil

#ifndef MTDB_BENCHMARK_NAMES_H_
#define MTDB_BENCHMARK_NAMES_H_

// Names shared by the span writer and the metric report.

#include <array>
#include <string_view>

#include "src/net/message.h"

namespace mtdb::bench {

// Metric labels of the TPC-W interactions, indexed by workload::Interaction.
inline constexpr std::array<std::string_view, 10> kInteractionLabels = {
    "home",          "new_products",   "best_sellers", "product_detail",
    "search_subject", "search_title",  "cart_add",     "buy_confirm",
    "order_inquiry", "admin_update",
};

inline std::string_view InteractionLabel(int label) {
  return label >= 0 && label < static_cast<int>(kInteractionLabels.size())
             ? kInteractionLabels[static_cast<size_t>(label)]
             : std::string_view("none");
}

// The transactional RPC types the per-layer report breaks down.
inline constexpr std::array<net::RpcType, 6> kReportedRpcTypes = {
    net::RpcType::kBegin,         net::RpcType::kExecutePrepared,
    net::RpcType::kPrepare,       net::RpcType::kCommitPrepared,
    net::RpcType::kCommit,        net::RpcType::kPrepareStatement,
};

}  // namespace mtdb::bench

#endif  // MTDB_BENCHMARK_NAMES_H_

#include "core/detail.hpp"

#include "common/log.hpp"

namespace fbfs::core::detail {

std::string state_file_name(const graph::PartitionedGraph& pg,
                            std::uint32_t p) {
  return pg.meta.name + ".P" +
         std::to_string(pg.layout.num_partitions()) + ".state" +
         std::to_string(p);
}

std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p) {
  return pg.meta.name + ".P" +
         std::to_string(pg.layout.num_partitions()) + ".upd" +
         std::to_string(p);
}

std::string round_update_file_name(const graph::PartitionedGraph& pg,
                                   std::uint32_t p, std::uint32_t round) {
  return update_file_name(pg, p) + ".r" + std::to_string(round);
}

void log_iteration(const char* program, const metrics::IterationStats& stats) {
  FB_LOG_DEBUG << program << " round " << stats.iteration << ": "
               << stats.partitions_scattered << " partitions scattered ("
               << stats.partitions_skipped << " skipped), "
               << stats.updates_emitted << " updates, " << stats.activated
               << " active next, " << stats.seconds << " s";
}

void remove_run_files(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    const std::vector<std::vector<std::uint64_t>>& round_updates) {
  for (std::uint32_t p = 0; p < pg.layout.num_partitions(); ++p) {
    plan.state().remove(state_file_name(pg, p));
    if (plan.updates().exists(update_file_name(pg, p))) {
      plan.updates().remove(update_file_name(pg, p));
    }
    for (std::uint32_t r = 0; r < round_updates.size(); ++r) {
      if (round_updates[r][p] > 0) {
        plan.updates().remove(round_update_file_name(pg, p, r));
      }
    }
  }
}

}  // namespace fbfs::core::detail

#include "core/engine.hpp"

#include "common/log.hpp"

namespace fbfs::core {

std::string stay_file_name(const graph::PartitionedGraph& pg,
                           std::uint32_t p) {
  return pg.meta.name + ".P" +
         std::to_string(pg.layout.num_partitions()) + ".stay" +
         std::to_string(p);
}

namespace detail {

void log_trim_resolution(const char* program, std::uint32_t partition,
                         io::AsyncWriter::StreamState state) {
  const char* outcome = "?";
  switch (state) {
    case io::AsyncWriter::StreamState::active:
      outcome = "active";
      break;
    case io::AsyncWriter::StreamState::completed:
      outcome = "committed";
      break;
    case io::AsyncWriter::StreamState::cancelled:
      outcome = "cancelled";
      break;
    case io::AsyncWriter::StreamState::failed:
      outcome = "failed";
      break;
  }
  FB_LOG_DEBUG << program << " trim of partition " << partition << ": "
               << outcome;
}

}  // namespace detail

}  // namespace fbfs::core

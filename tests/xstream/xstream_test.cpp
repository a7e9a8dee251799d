// Streaming-engine mechanics, driven through the X-Stream baseline
// preset (engine::run with Kind::kXstream): its config keys resolve,
// state/update files land on the roles the StoragePlan names,
// partitions with no active source are skipped, files are cleaned up
// (or kept on request), update shuffles are byte-identical across
// thread counts, and gather/collect check update routing.
#include "engine/api.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/temp_dir.hpp"
#include "common/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"

namespace fbfs {
namespace {

namespace detail = core::detail;
using detail::round_update_file_name;
using detail::state_file_name;
using detail::update_file_name;
using engine::Kind;
using graph::BfsProgram;
using graph::Edge;
using graph::GraphMeta;
using graph::kUnreachedLevel;
using graph::PartitionedGraph;

GraphMeta chain_graph(io::Device& dev, std::uint64_t n) {
  // 0 -> 1 -> ... -> n-1.
  return graph::write_generated(
      dev, "chain", n, 1, /*undirected=*/false,
      [&](const graph::EdgeSink& sink) {
        for (graph::VertexId v = 0; v + 1 < n; ++v) {
          sink({v, v + 1});
        }
      });
}

/// The X-Stream baseline preset through the engine front door.
template <graph::GraphProgram P>
engine::RunResult<P> run_xstream(const PartitionedGraph& pg,
                                 const io::StoragePlan& plan,
                                 const P& program,
                                 const engine::Options& options = {}) {
  return engine::run(Kind::kXstream, pg, plan, program, options);
}

TEST(XStream, BfsOnAChainAcrossPartitions) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  const auto result = run_xstream(pg, plan, BfsProgram{.root = 0});
  ASSERT_EQ(result.states.size(), 20u);
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(result.states[v].level, v);
  }
  EXPECT_EQ(result.iterations, 19u);
  EXPECT_EQ(result.updates_emitted, 19u);  // each edge fires exactly once
  EXPECT_EQ(result.per_iteration.size(), result.iterations);
}

TEST(XStream, EngineOptionsComeFromConfigKeys) {
  // The shared io.* / updates.* keys and the xstream-specific spellings.
  const Config cfg = Config::parse_string(
      "io.reader = prefetch\n"
      "io.reader_buffer = 256K\n"
      "xstream.write_buffer = 2M\n"
      "xstream.max_iterations = 42\n"
      "xstream.partition_count = 12\n"
      "engine.num_threads = 3\n"
      "updates.codec = auto\n"
      "updates.sieve = true\n");
  const engine::Options options =
      engine::options_from_config(cfg, Kind::kXstream);
  EXPECT_EQ(options.reader.mode, io::ReaderMode::kPrefetch);
  EXPECT_EQ(options.reader.buffer_bytes, 256u * 1024);
  EXPECT_EQ(options.write_buffer_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(options.max_iterations, 42u);
  EXPECT_EQ(options.num_threads, 3u);
  EXPECT_EQ(options.update_codec, io::codec::Policy::kAuto);
  EXPECT_TRUE(options.sieve_updates);
  EXPECT_EQ(engine::partition_count_from_config(cfg, Kind::kXstream, 4), 12u);
}

TEST(XStream, InactivePartitionsAreNotScattered) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  const auto result = run_xstream(pg, plan, BfsProgram{.root = 0});
  // A chain BFS has a one-vertex frontier: every round touches exactly
  // the one partition owning it — the skip logic the paper's selective
  // scheduling (PR 4) builds on.
  for (const metrics::IterationStats& stats : result.per_iteration) {
    EXPECT_EQ(stats.partitions_scattered, 1u) << stats.iteration;
    EXPECT_LE(stats.updates_emitted, 1u);
  }
}

TEST(XStream, StoragePlanRoutesStreamsToTheirDevices) {
  TempDir dir("xstream");
  io::Device edges_dev(dir.str() + "/edges", io::DeviceModel::unthrottled());
  io::Device state_dev(dir.str() + "/state", io::DeviceModel::unthrottled());
  io::Device upd_dev(dir.str() + "/upd", io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(edges_dev, 32);
  io::StoragePlan plan = io::StoragePlan::single(edges_dev);
  plan.assign(io::Role::kState, state_dev);
  plan.assign(io::Role::kUpdates, upd_dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 3);

  engine::Options options;
  options.keep_files = true;
  const auto result = run_xstream(pg, plan, BfsProgram{.root = 0}, options);
  EXPECT_EQ(result.states.back().level, 31u);

  // Each stream only touched its own device.
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(state_dev.exists(state_file_name(pg, p)));
    EXPECT_TRUE(upd_dev.exists(update_file_name(pg, p)));
    EXPECT_FALSE(edges_dev.exists(state_file_name(pg, p)));
    EXPECT_FALSE(edges_dev.exists(update_file_name(pg, p)));
  }
  EXPECT_GT(state_dev.stats().bytes_written(), 0u);
  EXPECT_GT(upd_dev.stats().bytes_written(), 0u);
  // The dominant edge stream stayed off the auxiliary devices: they
  // never read or wrote an edge record.
  EXPECT_EQ(state_dev.stats().bytes_read() % sizeof(BfsProgram::State), 0u);
}

TEST(XStream, FilesAreRemovedByDefault) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 12);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);
  (void)run_xstream(pg, plan, BfsProgram{.root = 0});
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(dev.exists(state_file_name(pg, p)));
    EXPECT_FALSE(dev.exists(update_file_name(pg, p)));
  }
  // The inputs survive.
  EXPECT_TRUE(dev.exists(meta.edge_file()));
  EXPECT_TRUE(dev.exists(pg.partition_file(0)));
}

TEST(XStream, SinglePartitionAndUnreachableVertices) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = graph::write_generated(
      dev, "two_islands", 6, 1, /*undirected=*/false,
      [](const graph::EdgeSink& sink) {
        sink({0, 1});
        sink({4, 5});
      });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 1);
  const auto result = run_xstream(pg, plan, BfsProgram{.root = 0});
  EXPECT_EQ(result.states[1].level, 1u);
  EXPECT_EQ(result.states[4].level, kUnreachedLevel);
  EXPECT_EQ(result.states[5].level, kUnreachedLevel);
}

std::vector<std::byte> file_bytes(io::Device& dev, const std::string& name) {
  const std::uint64_t size = dev.file_size(name);
  std::vector<std::byte> out(size);
  auto file = dev.open(name, /*truncate=*/false);
  EXPECT_EQ(file->read_at(0, out.data(), out.size()), out.size());
  return out;
}

TEST(XStream, UpdateShuffleIsByteIdenticalAcrossThreadCounts) {
  // The deterministic-shuffle contract, checked on the files themselves
  // rather than the folded states: the update files a scatter phase
  // leaves behind (PageRank scatters every round, so the LAST round's
  // files are non-trivial) and the final state files must be
  // byte-identical at T=1 and T=4 — the chunk-ordered hand-off makes
  // per-file append order independent of scheduling.
  TempDir dir("xstream");
  io::Device t1_dev(dir.str() + "/t1", io::DeviceModel::unthrottled());
  io::Device t4_dev(dir.str() + "/t4", io::DeviceModel::unthrottled());
  const graph::RmatSource source({.scale = 8, .edge_factor = 8, .seed = 5});
  std::vector<PartitionedGraph> pgs;
  for (io::Device* dev : {&t1_dev, &t4_dev}) {
    const GraphMeta meta = graph::write_generated(
        *dev, "rmat", source.num_vertices(), source.seed(),
        source.undirected(),
        [&](const graph::EdgeSink& sink) { source.generate(sink); });
    pgs.push_back(
        partition_edge_list(io::StoragePlan::single(*dev), meta, 3));
  }

  const graph::PageRankProgram program{.num_vertices =
                                           source.num_vertices()};
  engine::Options options;
  options.keep_files = true;
  options.max_iterations = 3;
  options.num_threads = 1;
  const auto serial =
      run_xstream(pgs[0], io::StoragePlan::single(t1_dev), program, options);
  options.num_threads = 4;
  const auto threaded =
      run_xstream(pgs[1], io::StoragePlan::single(t4_dev), program, options);

  ASSERT_EQ(serial.iterations, threaded.iterations);
  ASSERT_EQ(serial.updates_emitted, threaded.updates_emitted);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(file_bytes(t1_dev, update_file_name(pgs[0], p)),
              file_bytes(t4_dev, update_file_name(pgs[1], p)))
        << "update file " << p;
    EXPECT_EQ(file_bytes(t1_dev, state_file_name(pgs[0], p)),
              file_bytes(t4_dev, state_file_name(pgs[1], p)))
        << "state file " << p;
  }
}

TEST(XStream, ReadGroupSizeSpreadsSmallPartitionsOverTheWorkers) {
  TempDir dir("xstream");
  io::Device modelled(dir.str() + "/modelled", io::DeviceModel::unthrottled());
  io::Device real(dir.str() + "/real", io::DeviceModel::unthrottled(),
                  {.kind = io::BackendKind::kReal, .queue_depth = 8});
  // The modelled timeline is serial: one item per task, always.
  for (const std::uint64_t items : {0ull, 1ull, 4ull, 100ull}) {
    EXPECT_EQ(detail::read_group_size(modelled, items, 4), 1u) << items;
  }
  // Real, qd 8, T=4: ceil(items / 4) clamped to [1, 8].
  EXPECT_EQ(detail::read_group_size(real, 0, 4), 1u);
  EXPECT_EQ(detail::read_group_size(real, 4, 4), 1u);
  EXPECT_EQ(detail::read_group_size(real, 9, 4), 3u);
  EXPECT_EQ(detail::read_group_size(real, 100, 4), 8u);
  // T=1 (the serial bottom-up pull): min(items, qd), at least 1.
  EXPECT_EQ(detail::read_group_size(real, 0, 1), 1u);
  EXPECT_EQ(detail::read_group_size(real, 3, 1), 3u);
  EXPECT_EQ(detail::read_group_size(real, 100, 1), 8u);
}

TEST(XStreamDeath, PartitionParallelGatherStillChecksRouting) {
  // Gather checks every record's destination against the partition the
  // file belongs to. Run it at T=4 with four partitions pending, so the
  // partition tasks really go through the pool, and plant one update
  // addressed into partition 0 inside partition 2's file.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);
  const BfsProgram program{.root = 0};
  ThreadPool pool(4);
  const ExecContext exec{&pool};
  AtomicBitmap active(20);
  detail::init_partition_states(pg, plan, io::ReaderOptions{}, 1 << 12,
                                program, active, exec);

  std::vector<std::uint64_t> pending(4, 0);
  for (std::uint32_t q = 0; q < 4; ++q) {
    std::vector<BfsProgram::Update> updates = {{pg.layout.begin(q), 1}};
    if (q == 2) updates.push_back({pg.layout.begin(0), 1});
    detail::write_records<BfsProgram::Update>(dev, update_file_name(pg, q),
                                              updates, 1 << 12);
    pending[q] = updates.size();
  }
  AtomicBitmap next_active(20);
  EXPECT_DEATH(detail::gather_partitions(pg, plan, io::ReaderOptions{},
                                         1 << 12, program, pending,
                                         next_active, exec),
               "update target 0 misrouted into partition 2");
}

TEST(XStreamDeath, CollectReplayChecksRouting) {
  // A masked run's collect rebuilds States by replaying the kept round
  // update files; the replay checks routing exactly as gather does.
  // Plant an update addressed into partition 0 in partition 2's kept
  // round-0 file and collect at T=4.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);
  using Msbfs = graph::MultiBfs<>;
  Msbfs program;
  program.width = 1;
  program.roots[0] = 0;
  ThreadPool pool(4);
  const ExecContext exec{&pool};
  AtomicBitmap active(20);
  detail::MaskStateTracker<Msbfs> tracker(program, 20);
  detail::init_partition_states(pg, plan, io::ReaderOptions{}, 1 << 12,
                                program, active, exec, &tracker);

  tracker.round_updates.assign(1, std::vector<std::uint64_t>(4, 0));
  for (std::uint32_t q = 0; q < 4; ++q) {
    std::vector<Msbfs::Update> updates = {{pg.layout.begin(q), 1, 1}};
    if (q == 2) updates.push_back({pg.layout.begin(0), 1, 1});
    detail::write_records<Msbfs::Update>(
        dev, round_update_file_name(pg, q, 0), updates, 1 << 12);
    tracker.round_updates[0][q] = updates.size();
  }
  EXPECT_DEATH(detail::collect_states<Msbfs>(pg, plan, io::ReaderOptions{},
                                             exec, &tracker),
               "update target 0 misrouted into partition 2");
}

}  // namespace
}  // namespace fbfs

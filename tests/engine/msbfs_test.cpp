// Batched multi-source traversal (graph::MultiBfs + engine::run_batch):
// the mask mechanics (init/gather fold/stale-frontier clear/
// idempotence/unpack), the subset-dominance sieve hooks, batch
// splitting and the batch.max_width config key, and the acceptance
// matrix — B in {1, 7, 64} sources on three graph shapes through
// xstream and core x threads x trim x direction, every query memcmp'd
// against its own standalone in-memory BFS.
#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "core/detail.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"

namespace fbfs {
namespace {

using engine::Direction;
using engine::Kind;
using graph::BfsProgram;
using graph::kUnreachedLevel;
using graph::MultiBfs;
using graph::VertexId;

using Msbfs = engine::MultiBfs64;

// ------------------------------------------------------ mask mechanics

TEST(MultiBfsMechanics, InitSetsOnlyRootBitsAndLevels) {
  Msbfs program;
  program.width = 3;
  program.roots = {5, 9, 5};  // queries 0 and 2 share a root
  EXPECT_EQ(program.full_mask(), 0b111u);

  Msbfs::State s;
  bool active = false;
  program.init(5, 0, s, active);
  EXPECT_TRUE(active);
  EXPECT_EQ(s.seen, 0b101u);
  EXPECT_EQ(s.frontier, 0b101u);
  EXPECT_EQ(s.levels[0], 0u);
  EXPECT_EQ(s.levels[1], kUnreachedLevel);
  EXPECT_EQ(s.levels[2], 0u);

  program.init(7, 0, s, active);
  EXPECT_FALSE(active);
  EXPECT_EQ(s.seen, 0u);
  for (std::uint32_t b = 0; b < 3; ++b) {
    EXPECT_EQ(s.levels[b], kUnreachedLevel);
  }
}

TEST(MultiBfsMechanics, FullMaskSaturatesAtSixtyFour) {
  Msbfs program;
  program.width = 64;
  EXPECT_EQ(program.full_mask(), ~std::uint64_t{0});
  program.width = 1;
  EXPECT_EQ(program.full_mask(), 1u);
}

TEST(MultiBfsMechanics, GatherFoldsFreshBitsAndSetsLevels) {
  Msbfs program;
  program.width = 4;

  Msbfs::State s{};
  for (auto& l : s.levels) l = kUnreachedLevel;
  // Round-1 update brings queries {0, 2}.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0101}, s));
  EXPECT_EQ(s.seen, 0b0101u);
  EXPECT_EQ(s.frontier, 0b0101u);
  EXPECT_EQ(s.mark, 1u);
  EXPECT_EQ(s.levels[0], 1u);
  EXPECT_EQ(s.levels[2], 1u);
  EXPECT_EQ(s.levels[1], kUnreachedLevel);

  // Same round, another update: bit 1 is fresh, bit 0 is not.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0011}, s));
  EXPECT_EQ(s.seen, 0b0111u);
  EXPECT_EQ(s.frontier, 0b0111u);
  EXPECT_EQ(s.levels[1], 1u);

  // Duplicate delivery is a no-op (idempotent gather) and must not
  // touch the state at all — direction equivalence depends on it.
  const Msbfs::State before = s;
  EXPECT_FALSE(program.gather({.dst = 3, .level = 1, .mask = 0b0111}, s));
  EXPECT_EQ(std::memcmp(&before, &s, sizeof(s)), 0);
}

TEST(MultiBfsMechanics, NewRoundClearsTheStaleFrontier) {
  Msbfs program;
  program.width = 4;
  Msbfs::State s{};
  for (auto& l : s.levels) l = kUnreachedLevel;
  ASSERT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0001}, s));
  EXPECT_EQ(s.frontier, 0b0001u);

  // First arrival of round 2 resets frontier to the new arrivals only;
  // seen keeps accumulating.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 2, .mask = 0b1000}, s));
  EXPECT_EQ(s.frontier, 0b1000u);
  EXPECT_EQ(s.seen, 0b1001u);
  EXPECT_EQ(s.mark, 2u);
  EXPECT_EQ(s.levels[3], 2u);
  EXPECT_EQ(s.levels[0], 1u);

  // A redundant later-round update with no fresh bits must NOT clear
  // the frontier (the early-out precedes the mark check).
  EXPECT_FALSE(program.gather({.dst = 3, .level = 3, .mask = 0b1001}, s));
  EXPECT_EQ(s.frontier, 0b1000u);
  EXPECT_EQ(s.mark, 2u);
}

TEST(MultiBfsMechanics, ScatterAndPullCarryTheFrontierMask) {
  Msbfs program;
  program.width = 2;
  Msbfs::State src{};
  src.frontier = 0b10;
  src.mark = 4;
  Msbfs::Update u;
  ASSERT_TRUE(program.scatter({.src = 1, .dst = 2}, src, u));
  EXPECT_EQ(u.dst, 2u);
  EXPECT_EQ(u.level, 5u);
  EXPECT_EQ(u.mask, 0b10u);

  // pull_masked reconstructs the same update from the round number and
  // the caller-restricted mask; an empty mask declines.
  Msbfs::Update pulled;
  ASSERT_TRUE(program.pull_masked({.src = 1, .dst = 2}, 4, 0b10, pulled));
  EXPECT_EQ(std::memcmp(&pulled, &u, sizeof(u)), 0);
  EXPECT_FALSE(program.pull_masked({.src = 1, .dst = 2}, 4, 0, pulled));
}

TEST(MultiBfsSieve, DominatesIsMaskSubsetAndMergeIsOr) {
  Msbfs program;
  program.width = 8;
  const Msbfs::Update champ{.dst = 2, .level = 3, .mask = 0b0110};
  // Subset of the champion's mask at the same level: redundant.
  EXPECT_TRUE(program.dominates(champ, {.dst = 2, .level = 3, .mask = 0b0100}));
  // New bits: not dominated.
  EXPECT_FALSE(
      program.dominates(champ, {.dst = 2, .level = 3, .mask = 0b1000}));
  // An earlier-level update is never dominated by a later one.
  EXPECT_FALSE(
      program.dominates(champ, {.dst = 2, .level = 2, .mask = 0b0110}));

  Msbfs::Update merged = champ;
  program.sieve_merge(merged, {.dst = 2, .level = 3, .mask = 0b1001});
  EXPECT_EQ(merged.mask, 0b1111u);
  EXPECT_EQ(merged.level, 3u);
}

TEST(MultiBfsMechanics, UnpackQueryProjectsOneColumn) {
  Msbfs program;
  program.width = 2;
  std::vector<Msbfs::State> states(3);
  for (auto& s : states) {
    for (auto& l : s.levels) l = kUnreachedLevel;
  }
  states[0].levels[0] = 0;
  states[1].levels[0] = 1;
  states[2].levels[1] = 4;
  const std::vector<BfsProgram::State> q0 = program.unpack_query(0, states);
  ASSERT_EQ(q0.size(), 3u);
  EXPECT_EQ(q0[0].level, 0u);
  EXPECT_EQ(q0[1].level, 1u);
  EXPECT_EQ(q0[2].level, kUnreachedLevel);
  const std::vector<BfsProgram::State> q1 = program.unpack_query(1, states);
  EXPECT_EQ(q1[2].level, 4u);
  EXPECT_EQ(q1[0].level, kUnreachedLevel);
}

// ------------------------------------------------- batch front door

TEST(BatchOptions, ConfigKeyParsesAndClamps) {
  EXPECT_EQ(engine::batch_options_from_config({}).max_width, 64u);
  EXPECT_EQ(engine::batch_options_from_config(
                Config::parse_string("batch.max_width = 7\n"))
                .max_width,
            7u);
  // Out-of-range values clamp to the mask width.
  EXPECT_EQ(engine::batch_options_from_config(
                Config::parse_string("batch.max_width = 200\n"))
                .max_width,
            64u);
  EXPECT_EQ(engine::batch_options_from_config(
                Config::parse_string("batch.max_width = 0\n"))
                .max_width,
            1u);
}

struct TestGraph {
  std::string name;
  graph::GraphMeta meta;
  graph::PartitionedGraph pg;
  std::vector<VertexId> sources;  // 64 deterministic picks
  // reference[i] = inmem BFS-from-sources[i] states.
  std::vector<std::vector<BfsProgram::State>> reference;
};

TestGraph make_test_graph(io::Device& dev, const io::StoragePlan& plan,
                          const std::string& name,
                          const graph::ChunkedEdgeSource& source) {
  TestGraph g;
  g.name = name;
  g.meta = graph::write_generated(
      dev, name, source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  g.pg = graph::partition_edge_list(plan, g.meta, 4);
  const std::uint64_t n = g.meta.num_vertices;
  for (std::uint32_t i = 0; i < graph::kMaxBatchQueries; ++i) {
    g.sources.push_back(static_cast<VertexId>((i * 37 + 1) % n));
  }
  for (const VertexId s : g.sources) {
    g.reference.push_back(
        engine::run(Kind::kInmem, g.pg, plan, BfsProgram{.root = s}).states);
  }
  return g;
}

void expect_queries_match(const TestGraph& g,
                          const engine::BatchRunResult& batch,
                          std::size_t count) {
  ASSERT_EQ(batch.per_query.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " root " +
                 std::to_string(g.sources[i]));
    const auto& got = batch.per_query[i];
    const auto& want = g.reference[i];
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(BfsProgram::State)),
              0);
  }
}

// The acceptance matrix. One fixture builds the three graph shapes
// once; each test point packs B sources and memcmps every query
// against its standalone inmem run.
class BatchEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("msbfs_equiv");
    dev_ = new io::Device(dir_->str(), io::DeviceModel::unthrottled());
    plan_ = new io::StoragePlan(io::StoragePlan::single(*dev_));
    graphs_ = new std::vector<TestGraph>();
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "rmat",
        graph::RmatSource({.scale = 8, .edge_factor = 8, .seed = 11})));
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "er",
        graph::ErdosRenyiSource(
            {.num_vertices = 400, .num_edges = 2400, .seed = 23})));
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "grid",
        graph::Grid2dSource({.width = 18, .height = 18})));
  }
  static void TearDownTestSuite() {
    delete graphs_;
    graphs_ = nullptr;
    delete plan_;
    plan_ = nullptr;
    delete dev_;
    dev_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static io::Device* dev_;
  static io::StoragePlan* plan_;
  static std::vector<TestGraph>* graphs_;
};

TempDir* BatchEquivalence::dir_ = nullptr;
io::Device* BatchEquivalence::dev_ = nullptr;
io::StoragePlan* BatchEquivalence::plan_ = nullptr;
std::vector<TestGraph>* BatchEquivalence::graphs_ = nullptr;

engine::Options matrix_options(std::uint32_t threads, bool trim,
                               Direction direction) {
  engine::Options options;
  options.num_threads = threads;
  options.trim = trim;
  options.direction = direction;
  // Sieve + codec auto on throughout: the matrix must hold with the
  // mask-subset sieve and whatever format the codec picks.
  options.sieve_updates = true;
  options.update_codec = io::codec::Policy::kAuto;
  return options;
}

TEST_F(BatchEquivalence, XstreamMatchesPerQueryInmemRuns) {
  for (const TestGraph& g : *graphs_) {
    for (const std::uint32_t width : {1u, 7u, 64u}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(g.name + " B=" + std::to_string(width) +
                     " threads=" + std::to_string(threads));
        const engine::BatchRunResult batch = engine::run_batch(
            Kind::kXstream, g.pg, *plan_,
            std::span<const VertexId>(g.sources.data(), width),
            matrix_options(threads, /*trim=*/false, Direction::kTopDown));
        expect_queries_match(g, batch, width);
      }
    }
  }
}

TEST_F(BatchEquivalence, CoreMatchesAcrossThreadsTrimAndDirection) {
  for (const TestGraph& g : *graphs_) {
    for (const std::uint32_t width : {1u, 7u, 64u}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        for (const bool trim : {false, true}) {
          for (const Direction direction :
               {Direction::kTopDown, Direction::kBottomUp,
                Direction::kAuto}) {
            SCOPED_TRACE(g.name + " B=" + std::to_string(width) +
                         " threads=" + std::to_string(threads) +
                         " trim=" + std::to_string(trim) + " dir=" +
                         engine::to_string(direction));
            const engine::BatchRunResult batch = engine::run_batch(
                Kind::kCore, g.pg, *plan_,
                std::span<const VertexId>(g.sources.data(), width),
                matrix_options(threads, trim, direction));
            expect_queries_match(g, batch, width);
          }
        }
      }
    }
  }
}

TEST_F(BatchEquivalence, WideSourceListsSplitAcrossTraversals) {
  const TestGraph& g = (*graphs_)[0];
  // All 64 sources through width-24 traversals: ceil(64/24) = 3 runs,
  // source order preserved across the splits.
  const engine::BatchRunResult batch = engine::run_batch(
      Kind::kCore, g.pg, *plan_, g.sources,
      matrix_options(/*threads=*/1, /*trim=*/true, Direction::kTopDown),
      {.max_width = 24});
  EXPECT_EQ(batch.traversals.size(), 3u);
  expect_queries_match(g, batch, g.sources.size());
}

// Masked rounds run on the resident mask tracker: no State byte moves
// between the init write and the collect read, and collect's replay of
// the kept round files rebuilds States byte-identical to the references
// — inmem's 64-query MultiBfs run and each query's own inmem BfsProgram
// run. (The Kind::kXstream preset runs on the same tracker and is held
// to the same inmem reference.)
TEST_F(BatchEquivalence, CoreRoundsMoveNoStateBytes) {
  for (const std::size_t gi : {std::size_t{0}, std::size_t{2}}) {
    const TestGraph& g = (*graphs_)[gi];
    io::Device state_dev(dir_->str() + "/state_" + g.name,
                         io::DeviceModel::unthrottled());
    const io::StoragePlan plan =
        io::StoragePlan::single(*dev_).assign(io::Role::kState, state_dev);
    Msbfs program;
    program.width = graph::kMaxBatchQueries;
    std::copy(g.sources.begin(), g.sources.end(), program.roots.begin());
    const std::vector<Msbfs::State> inmem =
        engine::run(Kind::kInmem, g.pg, plan, program).states;
    const std::vector<Msbfs::State> xstream =
        engine::run(Kind::kXstream, g.pg, plan, program).states;
    ASSERT_EQ(std::memcmp(inmem.data(), xstream.data(),
                          inmem.size() * sizeof(Msbfs::State)),
              0);
    // One state file per partition: codec header + the partition's States.
    std::uint64_t state_file_bytes = 0;
    for (std::uint32_t q = 0; q < g.pg.layout.num_partitions(); ++q) {
      state_file_bytes += io::codec::kHeaderBytes +
                          g.pg.layout.size(q) * sizeof(Msbfs::State);
    }
    for (const std::uint32_t threads : {1u, 4u}) {
      for (const bool trim : {false, true}) {
        for (const Direction direction :
             {Direction::kTopDown, Direction::kAuto}) {
          for (const bool coded : {false, true}) {
            SCOPED_TRACE(g.name + " threads=" + std::to_string(threads) +
                         " trim=" + std::to_string(trim) + " dir=" +
                         engine::to_string(direction) +
                         (coded ? " auto+sieve" : " raw"));
            engine::Options options = matrix_options(threads, trim, direction);
            options.sieve_updates = coded;
            options.update_codec =
                coded ? io::codec::Policy::kAuto : io::codec::Policy::kRaw;
            const io::IoStatsSnapshot before = state_dev.stats().snapshot();
            const auto run = engine::run(Kind::kCore, g.pg, plan, program,
                                         options);
            const io::IoStatsSnapshot moved =
                state_dev.stats().snapshot().delta(before);
            ASSERT_GT(run.iterations, 1u);
            for (const metrics::IterationStats& row : run.per_iteration) {
              EXPECT_EQ(row.role_io(io::Role::kState).bytes_read, 0u)
                  << "round " << row.iteration;
              EXPECT_EQ(row.role_io(io::Role::kState).bytes_written, 0u)
                  << "round " << row.iteration;
            }
            EXPECT_EQ(moved.bytes_written, state_file_bytes);
            EXPECT_EQ(moved.bytes_read, state_file_bytes);
            ASSERT_EQ(run.states.size(), inmem.size());
            EXPECT_EQ(std::memcmp(run.states.data(), inmem.data(),
                                  inmem.size() * sizeof(Msbfs::State)),
                      0);
            for (std::uint32_t b = 0; b < program.width; ++b) {
              const auto got = program.unpack_query(
                  b, std::span<const Msbfs::State>(run.states));
              ASSERT_EQ(std::memcmp(got.data(), g.reference[b].data(),
                                    got.size() * sizeof(BfsProgram::State)),
                        0)
                  << "query " << b;
            }
          }
        }
      }
    }
  }
}

TEST_F(BatchEquivalence, KeptRoundFilesRemainOnlyWithKeepFiles) {
  const TestGraph& g = (*graphs_)[0];
  // The run's own files (states, updates, stays) on a device of their
  // own, so its listing shows exactly what a run leaves behind.
  io::Device run_dev(dir_->str() + "/kept_rounds",
                     io::DeviceModel::unthrottled());
  const io::StoragePlan plan = io::StoragePlan::single(*dev_)
                                   .assign(io::Role::kState, run_dev)
                                   .assign(io::Role::kUpdates, run_dev)
                                   .assign(io::Role::kStay, run_dev);
  Msbfs program;
  program.width = 7;
  std::copy_n(g.sources.begin(), 7, program.roots.begin());
  const auto round_files = [&](std::uint32_t round) {
    std::uint32_t found = 0;
    for (std::uint32_t q = 0; q < g.pg.layout.num_partitions(); ++q) {
      found += run_dev.exists(
          core::detail::round_update_file_name(g.pg, q, round));
    }
    return found;
  };

  const engine::Options scrub =
      matrix_options(2, /*trim=*/true, Direction::kTopDown);
  const auto scrubbed = engine::run(Kind::kCore, g.pg, plan, program, scrub);
  EXPECT_TRUE(run_dev.list_files().empty());

  engine::Options keep = scrub;
  keep.keep_files = true;
  const auto kept = engine::run(Kind::kCore, g.pg, plan, program, keep);
  ASSERT_EQ(kept.iterations, scrubbed.iterations);
  // Every gathered round kept a file for each partition it updated.
  for (std::uint32_t r = 0; r < kept.iterations; ++r) {
    EXPECT_GT(round_files(r), 0u) << "round " << r;
  }
  EXPECT_EQ(round_files(kept.iterations), 0u);
}

}  // namespace
}  // namespace fbfs

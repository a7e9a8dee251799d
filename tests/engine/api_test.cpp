// The unified engine surface (engine/types.hpp + engine/api.hpp): name
// round-trips, the config keys and the shared-key precedence the header
// documents, the Kind dispatch helper producing bit-identical states
// from all three kinds, and Kind::kXstream applying the baseline preset.
#include "engine/api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "graph/generators.hpp"

namespace fbfs {
namespace {

using engine::Direction;
using engine::Kind;
using graph::BfsProgram;
using graph::GraphMeta;

TEST(EngineNames, KindRoundTripsAndAcceptsTheFastbfsAlias) {
  for (const Kind kind : {Kind::kInmem, Kind::kXstream, Kind::kCore}) {
    EXPECT_EQ(engine::parse_kind(engine::to_string(kind)), kind);
  }
  EXPECT_EQ(engine::parse_kind("fastbfs"), Kind::kCore);
}

TEST(EngineNames, DirectionRoundTrips) {
  for (const Direction d :
       {Direction::kTopDown, Direction::kBottomUp, Direction::kAuto}) {
    EXPECT_EQ(engine::parse_direction(engine::to_string(d)), d);
  }
}

TEST(EngineOptions, SharedKeysResolveUnderDocumentedPrecedence) {
  // <engine>.key beats engine.key beats the built-in default.
  const Config config = Config::parse_string(
      "engine.write_buffer = 128K\n"
      "xstream.write_buffer = 64K\n"
      "engine.max_iterations = 9\n"
      "engine.partition_count = 3\n"
      "core.partition_count = 6\n");
  EXPECT_EQ(engine::options_from_config(config, Kind::kXstream)
                .write_buffer_bytes,
            64u * 1024);
  EXPECT_EQ(engine::options_from_config(config, Kind::kCore)
                .write_buffer_bytes,
            128u * 1024);  // no core.write_buffer: generic engine.* applies
  EXPECT_EQ(engine::options_from_config(config, Kind::kInmem).max_iterations,
            9u);
  EXPECT_EQ(engine::partition_count_from_config(config, Kind::kCore, 2), 6u);
  EXPECT_EQ(engine::partition_count_from_config(config, Kind::kXstream, 2),
            3u);
  // inmem has no partitions: always the caller's fallback.
  EXPECT_EQ(engine::partition_count_from_config(config, Kind::kInmem, 2), 2u);

  // Absent keys: the serial engine writing raw, sieve off.
  for (const Kind kind : {Kind::kXstream, Kind::kCore}) {
    SCOPED_TRACE(engine::to_string(kind));
    const engine::Options defaults = engine::options_from_config({}, kind);
    EXPECT_EQ(defaults.num_threads, 1u);
    EXPECT_EQ(defaults.update_codec, io::codec::Policy::kRaw);
    EXPECT_EQ(defaults.stay_codec, io::codec::Policy::kRaw);
    EXPECT_FALSE(defaults.sieve_updates);
    EXPECT_EQ(engine::partition_count_from_config({}, kind, 4), 4u);
  }
}

TEST(EngineOptions, DirectionKeysParseForCoreOnly) {
  const Config config = Config::parse_string(
      "core.direction = auto\n"
      "core.direction_alpha = 1.5\n"
      "core.direction_beta = 0.05\n");
  const engine::Options core = engine::options_from_config(config, Kind::kCore);
  EXPECT_EQ(core.direction, Direction::kAuto);
  EXPECT_DOUBLE_EQ(core.direction_alpha, 1.5);
  EXPECT_DOUBLE_EQ(core.direction_beta, 0.05);
  // Defaults: forced top-down, Beamer-style gates.
  const engine::Options defaults = engine::options_from_config({}, Kind::kCore);
  EXPECT_EQ(defaults.direction, Direction::kTopDown);
  EXPECT_DOUBLE_EQ(defaults.direction_alpha, 1.0);
  EXPECT_DOUBLE_EQ(defaults.direction_beta, 0.1);
  // core.* keys are never read for the other kinds.
  EXPECT_EQ(engine::options_from_config(config, Kind::kXstream).direction,
            Direction::kTopDown);
}

TEST(EngineDispatch, AllThreeKindsProduceBitIdenticalStates) {
  TempDir dir("engine_api");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const graph::ErdosRenyiSource source(
      {.num_vertices = 500, .num_edges = 4000, .seed = 13});
  const GraphMeta meta = graph::write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  const BfsProgram program{.root = 1};
  const auto reference = engine::run(Kind::kInmem, pg, plan, program);
  for (const Kind kind : {Kind::kXstream, Kind::kCore}) {
    SCOPED_TRACE(engine::to_string(kind));
    const auto result = engine::run(kind, pg, plan, program);
    ASSERT_EQ(result.states.size(), reference.states.size());
    ASSERT_EQ(result.iterations, reference.iterations);
    ASSERT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                          result.states.size() * sizeof(BfsProgram::State)),
              0);
  }
}

std::vector<std::byte> file_bytes(io::Device& dev, const std::string& name) {
  std::vector<std::byte> out(dev.file_size(name));
  auto file = dev.open(name);
  EXPECT_EQ(file->read_at(0, out.data(), out.size()), out.size());
  return out;
}

TEST(EngineDispatch, XstreamKindRunsTheBaselinePreset) {
  // Kind::kXstream forces trim off and direction top-down whatever the
  // caller sets, so a run asking for both must match a default-options
  // run in states, per-round role traffic and the files it leaves — and
  // the same options through Kind::kCore must really trim and flip.
  TempDir dir("engine_api");
  io::Device dev(dir.str() + "/graph", io::DeviceModel::unthrottled());
  const graph::RmatSource source({.scale = 9, .edge_factor = 8, .seed = 7});
  const GraphMeta meta = graph::write_generated(
      dev, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  const graph::PartitionedGraph pg =
      graph::partition_edge_list(io::StoragePlan::single(dev), meta, 4);

  engine::Options asked;
  asked.trim = true;
  asked.direction = Direction::kAuto;
  asked.keep_files = true;
  engine::Options defaults;
  defaults.keep_files = true;

  // The state/update/stay streams of each run on a device of their own,
  // so the listings show exactly what each run left behind.
  std::vector<std::unique_ptr<io::Device>> run_devs;
  const auto run_on = [&](Kind kind, const engine::Options& options) {
    run_devs.push_back(std::make_unique<io::Device>(
        dir.str() + "/run" + std::to_string(run_devs.size()),
        io::DeviceModel::unthrottled()));
    io::Device& run_dev = *run_devs.back();
    const io::StoragePlan plan = io::StoragePlan::single(dev)
                                     .assign(io::Role::kState, run_dev)
                                     .assign(io::Role::kUpdates, run_dev)
                                     .assign(io::Role::kStay, run_dev);
    return engine::run(kind, pg, plan, BfsProgram{}, options);
  };
  const auto preset = run_on(Kind::kXstream, asked);
  const auto plain = run_on(Kind::kXstream, defaults);
  const auto fastbfs = run_on(Kind::kCore, asked);

  EXPECT_GT(fastbfs.trims_started, 0u);
  EXPECT_GT(fastbfs.bottomup_rounds, 0u);
  for (const auto* result : {&preset, &plain}) {
    EXPECT_EQ(result->trims_started, 0u);
    EXPECT_EQ(result->bottomup_rounds, 0u);
    EXPECT_EQ(result->stay_edges_written, 0u);
  }

  ASSERT_EQ(preset.states.size(), plain.states.size());
  EXPECT_EQ(std::memcmp(preset.states.data(), plain.states.data(),
                        plain.states.size() * sizeof(BfsProgram::State)),
            0);
  ASSERT_EQ(preset.per_iteration.size(), plain.per_iteration.size());
  for (std::size_t r = 0; r < plain.per_iteration.size(); ++r) {
    for (const io::Role role : {io::Role::kEdges, io::Role::kState,
                                io::Role::kUpdates, io::Role::kStay}) {
      SCOPED_TRACE("round " + std::to_string(r) + " role " +
                   io::to_string(role));
      const metrics::RoleIo& got = preset.per_iteration[r].role_io(role);
      const metrics::RoleIo& want = plain.per_iteration[r].role_io(role);
      EXPECT_EQ(got.bytes_read, want.bytes_read);
      EXPECT_EQ(got.bytes_written, want.bytes_written);
      EXPECT_EQ(got.read_ops, want.read_ops);
      EXPECT_EQ(got.write_ops, want.write_ops);
    }
  }

  std::vector<std::string> kept = run_devs[0]->list_files();
  std::vector<std::string> want_kept = run_devs[1]->list_files();
  std::sort(kept.begin(), kept.end());
  std::sort(want_kept.begin(), want_kept.end());
  ASSERT_FALSE(kept.empty());
  ASSERT_EQ(kept, want_kept);
  for (const std::string& name : kept) {
    EXPECT_EQ(file_bytes(*run_devs[0], name), file_bytes(*run_devs[1], name))
        << name;
  }
}

}  // namespace
}  // namespace fbfs

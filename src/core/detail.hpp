// Building blocks of the streaming engine (core::run).
//
// Every streaming run, the X-Stream baseline preset included, executes
// synchronous rounds over one on-device layout: per-partition state
// files, per-partition update streams shuffled in place, a final
// id-order state collection. Masked programs keep their round state
// resident instead (MaskStateTracker), and the same gather/collect
// functions take that path. The init pass, the update fan-out, the
// scatter and pull loops, the gather (+ apply) phase, record stream
// helpers, file naming and per-round logging live here; core/engine.hpp
// holds the round loop, trimming and direction switching.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "metrics/iteration_stats.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"
#include "storage/stream.hpp"

namespace fbfs::core::detail {

/// On-device file names (rounds overwrite in place).
std::string state_file_name(const graph::PartitionedGraph& pg,
                            std::uint32_t p);
std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p);
/// Round `round`'s update file of partition p, kept for collect's
/// replay when rounds run on a MaskStateTracker.
std::string round_update_file_name(const graph::PartitionedGraph& pg,
                                   std::uint32_t p, std::uint32_t round);

void log_iteration(const char* program, const metrics::IterationStats& stats);

/// Engine-written record files (states, updates, stays) all carry the
/// update-codec header now (storage/codec.hpp), so reads and writes of
/// whole files go through the codec layer; the partitioner's edge files
/// predate the engines and stay headerless.
template <typename T>
std::vector<T> read_records(io::Device& device, const std::string& name,
                            const io::ReaderOptions& opts,
                            std::uint64_t expected) {
  return io::codec::read_all<T>(device, name, opts, expected);
}

template <typename T>
void write_records(io::Device& device, const std::string& name,
                   std::span<const T> records, std::size_t buffer_bytes) {
  io::codec::CodecWriter<T> writer(device, name, buffer_bytes);
  writer.append_batch(records);
  writer.close();
}

/// Streams partition q's update file `name` through the codec reader,
/// CHECKs that every record is addressed into q, and hands it to
/// `fold`. Returns the records delivered.
template <typename Update, typename Fold>
std::uint64_t for_each_routed_update(const graph::PartitionedGraph& pg,
                                     io::Device& device,
                                     const std::string& name, std::uint32_t q,
                                     const io::ReaderOptions& reader,
                                     Fold&& fold) {
  auto updates = io::codec::open_reader<Update>(device, name, reader);
  std::uint64_t delivered = 0;
  for (auto batch = updates->next_batch(); !batch.empty();
       batch = updates->next_batch()) {
    for (const Update& u : batch) {
      FB_CHECK_MSG(pg.layout.owner(u.dst) == q,
                   "update target " << u.dst << " misrouted into partition "
                                    << q << " of " << pg.meta.name);
      fold(u);
    }
    delivered += batch.size();
  }
  return delivered;
}

/// The resident round state of a masked program
/// (graph::MaskedProgram — MultiBfs): the {seen, frontier, mark} head of
/// every vertex's State in flat arrays, plus the saturation bitmap.
/// Rounds run on these alone — a top-down scatter emits from them
/// (scatter), gather folds the round's update files into them (fold) —
/// so no State file is read or written between init and collect;
/// trimming, bottom-up claiming and the direction model read the same
/// arrays. `saturated` is the trim/claim bitmap: a vertex every query
/// has seen can never gather anything new, its out-edges are dead and
/// bottom-up rounds skip its in-edge runs. Saturation is monotone, so
/// bits are only ever added.
///
/// gather_partitions keeps each round's update files under
/// round_update_file_name and logs their record counts in
/// `round_updates`; collect_states rebuilds the full States from the
/// init state files by replaying those files in round order through
/// program.gather. Partitions cover disjoint vertex ranges, so the
/// partition-parallel init (observe_range) and gather (fold) tasks
/// never touch the same slot.
template <graph::GraphProgram P>
struct MaskStateTracker {
  const P& program;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> seen;
  std::vector<std::uint32_t> mark;
  AtomicBitmap saturated;
  /// round_updates[r][q]: records round r's kept update file of
  /// partition q holds (0: no file kept).
  std::vector<std::vector<std::uint64_t>> round_updates;

  MaskStateTracker(const P& program, std::uint64_t num_vertices)
      : program(program),
        frontier(num_vertices, 0),
        seen(num_vertices, 0),
        mark(num_vertices, 0),
        saturated(num_vertices) {}

  void observe_range(graph::VertexId begin,
                     std::span<const typename P::State> states) {
    const std::uint64_t full = program.full_mask();
    for (std::uint64_t i = 0; i < states.size(); ++i) {
      const std::uint64_t v = begin + i;
      frontier[v] = program.frontier_mask(states[i]);
      seen[v] = program.seen_mask(states[i]);
      mark[v] = program.round_mark(states[i]);
      if (seen[v] == full) saturated.set(v);
    }
  }

  /// The top-down scatter source: an active vertex's head is its
  /// round's frontier.
  bool scatter(const graph::Edge& e, typename P::Update& out) const {
    return program.scatter_masked(e, frontier[e.src], mark[e.src], out);
  }

  /// gather() on the resident head; true iff u brought fresh bits.
  bool fold(const typename P::Update& u) {
    const graph::VertexId v = u.dst;
    if (program.gather_masks(u, seen[v], frontier[v], mark[v]) == 0) {
      return false;
    }
    if (seen[v] == program.full_mask()) saturated.set(v);
    return true;
  }

  struct RoundMasks {
    /// Aggregate popcount of the frontier masks over the round's active
    /// vertices — the direction model's per-query frontier density.
    std::uint64_t frontier_bits = 0;
    /// OR of those masks: which queries still have any frontier at all.
    std::uint64_t active_mask = 0;
  };
  RoundMasks round_masks(const AtomicBitmap& active) const {
    RoundMasks out;
    for (std::uint64_t w = 0; w < active.num_words(); ++w) {
      std::uint64_t bits = active.word(w);
      while (bits != 0) {
        const std::uint64_t v =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        out.frontier_bits +=
            static_cast<std::uint64_t>(std::popcount(frontier[v]));
        out.active_mask |= frontier[v];
      }
    }
    return out;
  }
};

/// The top-down scatter source of a partition whose States were loaded
/// from its state file; MaskStateTracker is the resident alternative.
template <graph::GraphProgram P>
struct StateSource {
  const P& program;
  std::span<const typename P::State> states;
  graph::VertexId begin;

  bool scatter(const graph::Edge& e, typename P::Update& out) const {
    return program.scatter(e, states[e.src - begin], out);
  }
};

/// The init pass: one scan per partition builds local out-degrees off
/// the partition's own edge file, runs program.init over its vertex
/// range, writes its state file, and marks the initially-active
/// vertices in `active`. Partitions are independent (own files, atomic
/// bitmap), so with a pool they run concurrently, one task each.
/// A masked program's `tracker` (required for those, unused otherwise)
/// observes each partition's states once they are final.
template <graph::GraphProgram P>
void init_partition_states(const graph::PartitionedGraph& pg,
                           const io::StoragePlan& plan,
                           const io::ReaderOptions& reader,
                           std::size_t write_buffer_bytes, const P& program,
                           AtomicBitmap& active, const ExecContext& exec = {},
                           MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  const graph::PartitionLayout& layout = pg.layout;
  if constexpr (graph::MaskedProgram<P>) {
    FB_CHECK_MSG(tracker != nullptr, P::kName << " runs need a tracker");
  }
  for_each_task(exec, layout.num_partitions(), [&](std::uint64_t t) {
    const auto p = static_cast<std::uint32_t>(t);
    const graph::VertexId begin = layout.begin(p);
    std::vector<std::uint32_t> degrees(layout.size(p), 0);
    auto edges = io::open_record_reader<graph::Edge>(
        plan.edges(), pg.partition_file(p), reader);
    for (auto batch = edges->next_batch(); !batch.empty();
         batch = edges->next_batch()) {
      for (const graph::Edge& e : batch) {
        FB_CHECK_MSG(layout.owner(e.src) == p,
                     "edge source " << e.src << " misfiled into partition "
                                    << p << " of " << pg.meta.name);
        ++degrees[e.src - begin];
      }
    }
    std::vector<State> states(layout.size(p));
    for (std::uint64_t i = 0; i < states.size(); ++i) {
      const graph::VertexId v = begin + static_cast<graph::VertexId>(i);
      bool is_active = false;
      program.init(v, degrees[i], states[i], is_active);
      if (is_active) active.set(v);
    }
    write_records<State>(plan.state(), state_file_name(pg, p), states,
                         write_buffer_bytes);
    if constexpr (graph::MaskedProgram<P>) {
      tracker->observe_range(begin, std::span<const State>(states));
    }
  });
}

/// P update writers held open across one scatter phase; writer q
/// receives every update addressed into partition q, in source-partition
/// order. Parallel scatter workers flush their staged per-destination
/// buffers through append_batch_locked, a short critical section per
/// writer. Each writer is a CodecWriter: raw policy streams exactly as
/// the old RecordWriter fan-out did, the other policies pick each
/// partition's cheapest on-disk format at close().
template <typename Update>
struct UpdateFanout {
  std::vector<std::unique_ptr<io::codec::CodecWriter<Update>>> writers;
  std::vector<std::unique_ptr<std::mutex>> locks;

  void append(std::uint32_t q, const Update& u) { writers[q]->append(u); }

  void append_batch(std::uint32_t q, std::span<const Update> batch) {
    writers[q]->append_batch(batch);
  }

  void append_batch_locked(std::uint32_t q, std::span<const Update> batch) {
    if (batch.empty()) return;
    std::lock_guard<std::mutex> guard(*locks[q]);
    writers[q]->append_batch(batch);
  }

  struct CloseStats {
    /// Updates a decoder will deliver — the gather-phase view the stop
    /// rule and pending counts key on (the bitmap format collapses
    /// byte-identical duplicates, so this can be below the staged
    /// count; nonzero iff anything was staged either way).
    std::uint64_t updates = 0;
    /// Bytes written (headers included), bucketed by chosen format.
    std::array<std::uint64_t, io::codec::kNumFormats> file_bytes{};
  };

  /// Closes all writers (encoding the non-raw ones) and records each
  /// partition's pending update count.
  CloseStats close(std::vector<std::uint64_t>& pending_updates) {
    CloseStats out;
    for (std::uint32_t q = 0; q < writers.size(); ++q) {
      const auto r = writers[q]->close();
      pending_updates[q] = r.records;
      out.updates += r.records;
      out.file_bytes[static_cast<std::size_t>(r.format)] += r.file_bytes;
    }
    return out;
  }
};

/// `allow_bitmap` is the per-program licence for the duplicate-
/// collapsing bitmap format — pass graph::kIdempotentGatherV<P>.
template <typename Update>
UpdateFanout<Update> open_update_fanout(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    std::size_t write_buffer_bytes,
    io::codec::Policy policy = io::codec::Policy::kRaw,
    bool allow_bitmap = false) {
  const std::uint32_t num_partitions = pg.layout.num_partitions();
  const std::size_t update_buffer = std::max<std::size_t>(
      sizeof(Update), write_buffer_bytes / num_partitions);
  UpdateFanout<Update> fanout;
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    io::codec::EncodeOptions opts;
    opts.policy = policy;
    opts.allow_bitmap = allow_bitmap;
    opts.range_begin = pg.layout.begin(q);
    opts.range_end = pg.layout.end(q);
    fanout.writers.push_back(
        std::make_unique<io::codec::CodecWriter<Update>>(
            plan.updates(), update_file_name(pg, q), update_buffer, opts));
    fanout.locks.push_back(std::make_unique<std::mutex>());
  }
  return fanout;
}

/// Edge-observer hook of scatter_partition. Runs that cannot trim pass
/// this no-op; StayTrimSink (core/engine.hpp) counts dead edges and
/// stages survivors for the stay stream. ChunkState carries whatever the sink accumulates per
/// chunk; flush(ChunkState&) is only ever called in input order — from
/// the serial loop, or inside the parallel scatter's ordered hand-off —
/// so a sink may keep plain (non-atomic) members touched only there.
struct NullTrimSink {
  struct ChunkState {};
  ChunkState make_chunk_state() const { return {}; }
  void observe(const graph::Edge&, bool /*src_active*/, ChunkState&) const {}
  void flush(ChunkState&) {}
};

/// One scatter pass's counters. `emitted` counts updates program.scatter
/// produced; `sieved` counts the ones that never reached the shuffle
/// writers (scatter declined, or the staging sieve collapsed them onto
/// an earlier same-destination update). Records staged = emitted minus
/// the sieve's share of sieved.
struct ScatterResult {
  std::uint64_t scanned = 0;
  std::uint64_t emitted = 0;
  std::uint64_t sieved = 0;
  /// Edges that actually probed program state: a top-down scan probes
  /// every edge it scans (probed == scanned); a bottom-up pull skips
  /// the rest of a vertex's in-edge run once the vertex is claimed, so
  /// probed is the short-circuit's savings made visible.
  std::uint64_t probed = 0;
  /// Edges never READ at all: bottom-up blocks whose whole destination
  /// range was already claimed are skipped without touching their bytes
  /// (the frontier-density-aware reader). scanned + skipped covers the
  /// input file.
  std::uint64_t skipped = 0;
};

/// One worker's staging state for a scatter window: per-destination-
/// partition update buckets, plus (when sieving) a dst -> bucket-slot
/// map over the CURRENT window. A window is one staging-buffer
/// lifetime — a serial reader batch or a parallel chunk, both exactly
/// `reader.buffer_bytes / sizeof(Edge)` records — so the sieve sees
/// identical windows at every thread count and the update files stay
/// byte-identical. Within a window the first update to a destination
/// claims the slot; a later non-dominated update is folded into the
/// champion IN that slot via program.sieve_merge (file position = first
/// sighting, value = the fold: min-folds replace, mask folds OR), and
/// either way the later record is dropped. Exact only for
/// SieveCapable programs — the sieve flag is dead for the rest.
template <graph::GraphProgram P>
struct ScatterStage {
  using Update = typename P::Update;

  const P& program;
  const graph::PartitionLayout& layout;
  bool sieve;
  std::vector<std::vector<Update>> buckets;
  std::unordered_map<graph::VertexId, std::uint32_t> window;
  std::uint64_t emitted = 0;
  std::uint64_t sieved = 0;

  ScatterStage(const P& program, const graph::PartitionLayout& layout,
               bool sieve)
      : program(program),
        layout(layout),
        sieve(sieve),
        buckets(layout.num_partitions()) {}

  void stage(const Update& u) {
    ++emitted;
    std::vector<Update>& bucket = buckets[layout.owner(u.dst)];
    if constexpr (graph::SieveCapable<P>) {
      if (sieve) {
        const auto [it, inserted] = window.try_emplace(
            graph::VertexId(u.dst), static_cast<std::uint32_t>(bucket.size()));
        if (!inserted) {
          Update& champion = bucket[it->second];
          if (!program.dominates(champion, u)) program.sieve_merge(champion, u);
          ++sieved;
          return;
        }
      }
    }
    bucket.push_back(u);
  }

  /// Scatter `batch` into the buckets — each active source's update
  /// comes from `source` (StateSource or MaskStateTracker) — and show
  /// every edge to `trim`.
  template <typename Source, typename TrimSink>
  void process(std::span<const graph::Edge> batch, const Source& source,
               const AtomicBitmap& active, TrimSink& trim,
               typename TrimSink::ChunkState& chunk) {
    for (const graph::Edge& e : batch) {
      const bool src_active = P::kScatterAllVertices || active.test(e.src);
      if (src_active) {
        Update u;
        if (source.scatter(e, u)) {
          stage(u);
        } else {
          ++sieved;
        }
      }
      trim.observe(e, src_active, chunk);
    }
  }

  /// Serial window retirement: append + clear, ready for the next batch.
  template <typename Fanout>
  void flush_serial(Fanout& fanout) {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      if (!buckets[q].empty()) {
        fanout.append_batch(q, buckets[q]);
        buckets[q].clear();
      }
    }
    window.clear();
  }

  /// Parallel retirement: the stage is per-chunk, appended once under
  /// the ordered hand-off and then discarded.
  template <typename Fanout>
  void flush_locked(Fanout& fanout) {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      fanout.append_batch_locked(q, buckets[q]);
    }
  }
};

/// Read items (scatter chunks, bottom-up read units) one pool task
/// reads as a single batched submission. On a real-backend device that
/// is ceil(items / threads), clamped to [1, queue_depth]: a partition of
/// fewer than threads x queue_depth items still spreads over every
/// worker, and a large one still keeps queue_depth reads in flight per
/// ring batch. The modelled timeline is serial, so groups stay size 1
/// there and the per-item read/charge sequence is the historical one.
inline std::uint64_t read_group_size(const io::Device& device,
                                     std::uint64_t items, unsigned threads) {
  if (device.backend_kind() != io::BackendKind::kReal) return 1;
  const std::uint64_t workers = std::max(1u, threads);
  const std::uint64_t queue_depth =
      std::max(1u, device.backend_options().queue_depth);
  return std::clamp<std::uint64_t>((items + workers - 1) / workers, 1,
                                   queue_depth);
}

/// One partition's scatter: scans `num_records` edges from
/// `input_name` starting at byte `base_offset` (0 for headerless edge
/// partition files, codec::kHeaderBytes for raw codec streams), asks
/// `source` for the update of every active-source edge (or every edge,
/// for kScatterAllVertices programs), routes emitted updates into the
/// fan-out — sieving dominated duplicates at the staging buffers when
/// `sieve_updates` and the program allows — and shows every edge + its
/// activity to `trim`.
///
/// With a collector, the fan-out flushes are timed as shuffle-flush
/// latencies and the scan feeds the live op counters. The counting
/// itself is plain local increments either way; only the flush to the
/// LiveOps atomics is gated on the collector, so a null collector costs
/// one pointer test per batch/chunk — no clock reads, no atomics.
///
/// Serial (no pool): one streaming reader honouring `reader` (including
/// prefetch mode), retiring each delivered batch immediately — the
/// single-threaded engines' exact behaviour. Parallel: the stream is
/// cut into fixed-size record chunks, and each pool task owns a group
/// of read_group_size consecutive chunks (one per task on the modelled
/// device; on a real device enough to spread the partition over every
/// worker, at most queue_depth). A task reads its chunks with one
/// batched positional submission, stages each chunk's updates in
/// per-destination-partition buffers, then retires chunk by chunk
/// through an OrderedGate in chunk order. Because every update file
/// only sees its own updates, in scan order, and survivors append in
/// scan order too, update files and stay files are byte-identical at
/// every thread count.
template <graph::GraphProgram P, typename Source, typename TrimSink>
ScatterResult scatter_partition(
    const ExecContext& exec, io::Device& input_dev,
    const std::string& input_name, std::uint64_t base_offset,
    std::uint64_t num_records, const graph::PartitionLayout& layout,
    const Source& source, const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, TrimSink& trim,
    metrics::Collector* collector = nullptr) {
  if (!exec.parallel()) {
    io::ReaderOptions opts = reader;
    opts.offset = base_offset;
    // Prefetch mode sizes its ring to a real device's queue depth (the
    // fetcher submits all free slots as one ring batch); on the
    // modelled device this keeps the historical double-buffering.
    opts.match_device(input_dev);
    auto edges =
        io::open_record_reader<graph::Edge>(input_dev, input_name, opts);
    ScatterStage<P> stage(program, layout, sieve_updates);
    auto chunk = trim.make_chunk_state();
    std::uint64_t scanned = 0;
    for (auto batch = edges->next_batch(); !batch.empty();
         batch = edges->next_batch()) {
      scanned += batch.size();
      stage.process(batch, source, active, trim, chunk);
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_serial(fanout);
        trim.flush(chunk);
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_edges_probed(scanned);
      collector->live().add_updates(stage.emitted, stage.sieved);
    }
    return {scanned, stage.emitted, stage.sieved, scanned};
  }

  const std::uint64_t chunk_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));
  const std::uint64_t num_chunks =
      (num_records + chunk_records - 1) / chunk_records;
  // A task owns a run of consecutive chunks and submits their
  // positional reads as ONE batch (read_group_size).
  const std::uint64_t group_chunks =
      read_group_size(input_dev, num_chunks, exec.threads());
  const std::uint64_t num_groups =
      num_chunks == 0 ? 0 : (num_chunks + group_chunks - 1) / group_chunks;
  OrderedGate gate;
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> sieved{0};
  std::vector<std::future<void>> groups;
  groups.reserve(num_groups);
  for (std::uint64_t g = 0; g < num_groups; ++g) {
    groups.push_back(exec.pool->submit([&, g] {
      const std::uint64_t first_chunk = g * group_chunks;
      const std::uint64_t n_chunks =
          std::min(group_chunks, num_chunks - first_chunk);
      // Completes tickets `from` .. end-of-group so the ordered
      // hand-off chain stays alive when this task throws; join_all
      // surfaces the failure.
      const auto abandon_from = [&](std::uint64_t from) {
        for (std::uint64_t c = from; c < first_chunk + n_chunks; ++c) {
          gate.wait_turn(c);
          gate.complete(c);
        }
      };
      // Each chunk is still one positional read on its own File (the
      // modelled head/seek accounting cannot tell batched submission
      // from the old per-chunk readers); the group's reads go down as a
      // single read_batch.
      std::vector<std::unique_ptr<io::File>> files;
      std::vector<std::vector<graph::Edge>> buffers(n_chunks);
      try {
        std::vector<io::ReadRequest> requests;
        files.reserve(n_chunks);
        requests.reserve(n_chunks);
        for (std::uint64_t k = 0; k < n_chunks; ++k) {
          const std::uint64_t first = (first_chunk + k) * chunk_records;
          const std::uint64_t count =
              std::min(chunk_records, num_records - first);
          buffers[k].resize(static_cast<std::size_t>(count));
          files.push_back(input_dev.open(input_name));
          requests.push_back(
              {files.back().get(),
               base_offset + first * sizeof(graph::Edge), buffers[k].data(),
               static_cast<std::size_t>(count * sizeof(graph::Edge)), 0});
        }
        input_dev.read_batch(requests);
        for (std::uint64_t k = 0; k < n_chunks; ++k) {
          FB_CHECK_MSG(requests[k].got == requests[k].bytes,
                       input_name << " ends inside chunk " << first_chunk + k
                                  << " (" << (requests[k].bytes -
                                              requests[k].got)
                                  << " bytes short)");
        }
      } catch (...) {
        abandon_from(first_chunk);
        throw;
      }
      for (std::uint64_t k = 0; k < n_chunks; ++k) {
        const std::uint64_t c = first_chunk + k;
        const std::uint64_t count = buffers[k].size();
        ScatterStage<P> stage(program, layout, sieve_updates);
        auto chunk = trim.make_chunk_state();
        try {
          stage.process(std::span<const graph::Edge>(buffers[k]), source,
                        active, trim, chunk);
        } catch (...) {
          abandon_from(c);
          throw;
        }
        gate.wait_turn(c);
        try {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_locked(fanout);
          trim.flush(chunk);
        } catch (...) {
          gate.complete(c);
          abandon_from(c + 1);
          throw;
        }
        gate.complete(c);
        scanned.fetch_add(count, std::memory_order_relaxed);
        emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
        sieved.fetch_add(stage.sieved, std::memory_order_relaxed);
        if (collector != nullptr) {
          collector->live().add_edges_scanned(count);
          collector->live().add_edges_probed(count);
          collector->live().add_updates(stage.emitted, stage.sieved);
        }
      }
    }));
  }
  join_all(groups);
  const std::uint64_t total = scanned.load(std::memory_order_relaxed);
  return {total, emitted.load(std::memory_order_relaxed),
          sieved.load(std::memory_order_relaxed), total};
}

/// scatter_partition over an in-memory edge span — the path for stay
/// files whose codec format is not raw (the whole file decodes up
/// front; a compressed stream has no per-chunk byte offsets to slice).
/// Windowing, ordering, and the sieve all match scatter_partition
/// exactly: serial slices and parallel chunks are both
/// `reader.buffer_bytes / sizeof(Edge)` records, and parallel chunks
/// retire through the same ordered hand-off.
template <graph::GraphProgram P, typename Source, typename TrimSink>
ScatterResult scatter_span(
    const ExecContext& exec, std::span<const graph::Edge> edges,
    const graph::PartitionLayout& layout, const Source& source,
    const AtomicBitmap& active, const P& program, const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, TrimSink& trim,
    metrics::Collector* collector = nullptr) {
  const std::uint64_t num_records = edges.size();
  const std::uint64_t chunk_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));

  if (!exec.parallel()) {
    ScatterStage<P> stage(program, layout, sieve_updates);
    auto chunk = trim.make_chunk_state();
    for (std::uint64_t first = 0; first < num_records;
         first += chunk_records) {
      const std::uint64_t count =
          std::min(chunk_records, num_records - first);
      stage.process(edges.subspan(first, count), source, active, trim,
                    chunk);
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_serial(fanout);
        trim.flush(chunk);
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(num_records);
      collector->live().add_edges_probed(num_records);
      collector->live().add_updates(stage.emitted, stage.sieved);
    }
    return {num_records, stage.emitted, stage.sieved, num_records};
  }

  const std::uint64_t num_chunks =
      num_records == 0 ? 0 : (num_records + chunk_records - 1) / chunk_records;
  OrderedGate gate;
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> sieved{0};
  std::vector<std::future<void>> chunks;
  chunks.reserve(num_chunks);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    chunks.push_back(exec.pool->submit([&, c] {
      const std::uint64_t first = c * chunk_records;
      const std::uint64_t count =
          std::min(chunk_records, num_records - first);
      ScatterStage<P> stage(program, layout, sieve_updates);
      auto chunk = trim.make_chunk_state();
      try {
        stage.process(edges.subspan(first, count), source, active, trim,
                      chunk);
      } catch (...) {
        gate.wait_turn(c);
        gate.complete(c);
        throw;
      }
      gate.wait_turn(c);
      try {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_locked(fanout);
        trim.flush(chunk);
      } catch (...) {
        gate.complete(c);
        throw;
      }
      gate.complete(c);
      emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
      sieved.fetch_add(stage.sieved, std::memory_order_relaxed);
      if (collector != nullptr) {
        collector->live().add_edges_scanned(count);
        collector->live().add_edges_probed(count);
        collector->live().add_updates(stage.emitted, stage.sieved);
      }
    }));
  }
  join_all(chunks);
  return {num_records, emitted.load(std::memory_order_relaxed),
          sieved.load(std::memory_order_relaxed), num_records};
}

/// One partition's bottom-up pull: scans partition q's TRANSPOSED
/// (in-edge, dst-sorted) file and lets still-unclaimed destinations
/// probe the frontier. Because the file is sorted by destination, a
/// vertex's in-edges form one contiguous run; once a run's vertex is
/// claimed the rest of the run is skipped without touching program
/// state — `probed` counts only the edges that got as far as the
/// bitmap probes, which is where the direction optimisation's savings
/// live.
///
/// Two program families, selected by `if constexpr`:
///
///   * PullCapable (single-query BFS): `claimed` is the engine's
///     visited bitmap; the first successful pull claims the vertex for
///     the round.
///   * MaskedProgram (MultiBfs): `claimed` is the saturation bitmap and
///     the caller additionally passes the MaskStateTracker's flat
///     frontier/seen mask arrays. Each edge pulls
///     `frontier[src] & ~delivered-so-far` — the accumulator starts at
///     the destination's seen mask, so a dst's pulled masks never
///     overlap and their union is exactly what top-down would deliver
///     fresh — and the run is claimed once the accumulator saturates.
///
/// Granularity and the byte-skipping reader: the file is processed in
/// the transposed view's fixed blocks (graph::kTransposedBlockRecords
/// records; `blocks` holds each block's dst range). A block whose whole
/// dst range is already claimed is SKIPPED — its records are counted in
/// ScatterResult::skipped and its bytes are never read (the
/// frontier-density-aware reader; conservative, since the range test
/// also covers ids with no in-edges in the block). Needed blocks are
/// coalesced into read units of at most `reader.buffer_bytes` and read
/// with one positional request each (replacing the streaming reader —
/// read-ahead does not fit a skip-seek scan).
///
/// Determinism contract, mirroring scatter_partition: the run-tracking
/// state (current destination, claimed flag, delivered-mask
/// accumulator) resets at every BLOCK boundary — fixed at view build
/// time — so serial and parallel runs window identically and a run
/// straddling a boundary re-emits deterministically (byte-identical
/// records for PullCapable, disjoint-mask records with the same union
/// for masked programs; both exact under the idempotent gather). The
/// staging sieve stays off here: claiming already dedupes within a
/// block.
template <graph::GraphProgram P>
  requires(graph::PullCapable<P> || graph::MaskedProgram<P>)
ScatterResult pull_partition(
    const ExecContext& exec, io::Device& input_dev,
    const std::string& input_name, std::uint64_t num_records,
    std::span<const graph::TransposedBlock> blocks,
    const graph::PartitionLayout& layout, std::uint32_t partition,
    const AtomicBitmap& active, const AtomicBitmap& claimed_set,
    const P& program, std::uint32_t round, const io::ReaderOptions& reader,
    std::span<const std::uint64_t> frontier_masks,
    std::span<const std::uint64_t> seen_masks,
    UpdateFanout<typename P::Update>& fanout,
    metrics::Collector* collector = nullptr) {
  constexpr bool kMasked = graph::MaskedProgram<P>;
  constexpr std::uint64_t kBlock = graph::kTransposedBlockRecords;
  const graph::VertexId range_begin = layout.begin(partition);
  const graph::VertexId range_end = layout.end(partition);
  FB_CHECK_MSG(blocks.size() == (num_records + kBlock - 1) / kBlock,
               input_name << " block index covers " << blocks.size()
                          << " blocks for " << num_records << " records");
  [[maybe_unused]] std::uint64_t full = 0;
  if constexpr (kMasked) full = program.full_mask();

  const auto block_count = [&](std::uint64_t b) {
    return b + 1 == blocks.size() ? num_records - b * kBlock : kBlock;
  };
  const auto block_skippable = [&](std::uint64_t b) {
    return claimed_set.all_in_range(
        blocks[b].first_dst, static_cast<std::uint64_t>(blocks[b].last_dst) + 1);
  };

  // One block's pull loop; all run state is local, so every block is
  // self-contained whatever read unit delivered it.
  const auto process_block = [&](std::span<const graph::Edge> window,
                                 ScatterStage<P>& stage,
                                 std::uint64_t& probed) {
    graph::VertexId last_dst = 0;
    bool have_run = false;
    bool claimed = false;
    [[maybe_unused]] std::uint64_t delivered = 0;
    for (const graph::Edge& e : window) {
      FB_CHECK_MSG(e.dst >= range_begin && e.dst < range_end,
                   input_name << " holds edge to " << e.dst
                              << " outside partition " << partition);
      if (!have_run || e.dst != last_dst) {
        FB_CHECK_MSG(!have_run || e.dst > last_dst,
                     input_name << " is not sorted by destination at "
                                << e.dst);
        have_run = true;
        last_dst = e.dst;
        claimed = claimed_set.test(e.dst);
        if constexpr (kMasked) delivered = claimed ? 0 : seen_masks[e.dst];
      }
      if (claimed) continue;
      ++probed;
      if (!active.test(e.src)) continue;
      typename P::Update u;
      if constexpr (kMasked) {
        const std::uint64_t mask = frontier_masks[e.src] & ~delivered;
        if (program.pull_masked(e, round, mask, u)) {
          stage.stage(u);
          delivered |= mask;
          if (delivered == full) claimed = true;
        }
      } else {
        if (program.pull(e, round, u)) {
          stage.stage(u);
          claimed = true;
        }
      }
    }
  };

  // The skip/read schedule, decided once up front (the claimed set is
  // frozen for the round): contiguous needed blocks coalesce into read
  // units of at most unit_blocks, each one positional read.
  struct ReadUnit {
    std::uint64_t first_block = 0;
    std::uint64_t num_blocks = 0;
  };
  const std::uint64_t unit_blocks = std::max<std::uint64_t>(
      1, reader.buffer_bytes / (kBlock * sizeof(graph::Edge)));
  std::vector<ReadUnit> units;
  std::uint64_t skipped = 0;
  for (std::uint64_t b = 0; b < blocks.size(); ++b) {
    if (block_skippable(b)) {
      skipped += block_count(b);
      continue;
    }
    if (!units.empty() &&
        units.back().first_block + units.back().num_blocks == b &&
        units.back().num_blocks < unit_blocks) {
      ++units.back().num_blocks;
    } else {
      units.push_back({b, 1});
    }
  }

  // Reads units[first_unit .. first_unit+n) into per-unit buffers as
  // ONE batched submission — every unit keeps its own File and one
  // positional read covering exactly its coalesced blocks, so the
  // modelled backend (whose read_batch is an in-order read_at loop over
  // fresh file ids) charges exactly what the old per-unit readers did,
  // while a real backend pushes the whole group down one ring
  // submission.
  const auto read_unit_group =
      [&](std::size_t first_unit, std::size_t n,
          std::vector<std::vector<graph::Edge>>& buffers) {
        buffers.assign(n, {});
        std::vector<std::unique_ptr<io::File>> files;
        std::vector<io::ReadRequest> requests;
        files.reserve(n);
        requests.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
          const ReadUnit& unit = units[first_unit + k];
          std::uint64_t unit_records = 0;
          for (std::uint64_t b = 0; b < unit.num_blocks; ++b) {
            unit_records += block_count(unit.first_block + b);
          }
          buffers[k].resize(static_cast<std::size_t>(unit_records));
          files.push_back(input_dev.open(input_name));
          requests.push_back(
              {files.back().get(),
               unit.first_block * kBlock * sizeof(graph::Edge),
               buffers[k].data(),
               static_cast<std::size_t>(unit_records * sizeof(graph::Edge)),
               0});
        }
        input_dev.read_batch(requests);
        for (std::size_t k = 0; k < n; ++k) {
          FB_CHECK_MSG(requests[k].got == requests[k].bytes,
                       input_name << " ends inside its block index ("
                                  << (requests[k].bytes - requests[k].got)
                                  << " bytes short)");
        }
      };

  // Pulls one delivered unit, re-windowing on the block boundaries the
  // view fixed at build time.
  const auto process_unit = [&](const ReadUnit& unit,
                                std::span<const graph::Edge> records,
                                ScatterStage<P>& stage, std::uint64_t& scanned,
                                std::uint64_t& probed) {
    std::size_t off = 0;
    for (std::uint64_t b = 0; b < unit.num_blocks; ++b) {
      const std::size_t n =
          static_cast<std::size_t>(block_count(unit.first_block + b));
      process_block(records.subspan(off, n), stage, probed);
      off += n;
    }
    scanned += records.size();
  };

  // Units per batched submission (read_group_size): size 1 on the
  // modelled device keeps the historical read/flush interleaving, and
  // with it the charge sequence on a shared update device.
  const std::size_t group_units = static_cast<std::size_t>(
      read_group_size(input_dev, units.size(), exec.threads()));

  if (!exec.parallel()) {
    ScatterStage<P> stage(program, layout, /*sieve=*/false);
    std::uint64_t scanned = 0;
    std::uint64_t probed = 0;
    std::vector<std::vector<graph::Edge>> buffers;
    for (std::size_t g = 0; g < units.size(); g += group_units) {
      const std::size_t n = std::min(group_units, units.size() - g);
      read_unit_group(g, n, buffers);
      for (std::size_t k = 0; k < n; ++k) {
        process_unit(units[g + k], buffers[k], stage, scanned, probed);
        {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_serial(fanout);
        }
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_edges_probed(probed);
      collector->live().add_updates(stage.emitted, 0);
    }
    return {scanned, stage.emitted, 0, probed, skipped};
  }

  // Parallel: one task per unit group, retiring unit-by-unit through
  // the ordered hand-off in file order — same records, same per-block
  // windows, so the update files match the serial bytes.
  const std::size_t num_groups =
      units.empty() ? 0 : (units.size() + group_units - 1) / group_units;
  OrderedGate gate;
  std::atomic<std::uint64_t> scanned_total{0};
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> probed_total{0};
  std::vector<std::future<void>> tasks;
  tasks.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    tasks.push_back(exec.pool->submit([&, g] {
      const std::size_t first_unit = g * group_units;
      const std::size_t n = std::min(group_units, units.size() - first_unit);
      const auto abandon_from = [&](std::size_t from) {
        for (std::size_t c = from; c < first_unit + n; ++c) {
          gate.wait_turn(c);
          gate.complete(c);
        }
      };
      std::vector<std::vector<graph::Edge>> buffers;
      try {
        read_unit_group(first_unit, n, buffers);
      } catch (...) {
        abandon_from(first_unit);
        throw;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t c = first_unit + k;
        ScatterStage<P> stage(program, layout, /*sieve=*/false);
        std::uint64_t scanned = 0;
        std::uint64_t probed = 0;
        try {
          process_unit(units[c], buffers[k], stage, scanned, probed);
        } catch (...) {
          abandon_from(c);
          throw;
        }
        gate.wait_turn(c);
        try {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_locked(fanout);
        } catch (...) {
          gate.complete(c);
          abandon_from(c + 1);
          throw;
        }
        gate.complete(c);
        scanned_total.fetch_add(scanned, std::memory_order_relaxed);
        emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
        probed_total.fetch_add(probed, std::memory_order_relaxed);
        if (collector != nullptr) {
          collector->live().add_edges_scanned(scanned);
          collector->live().add_edges_probed(probed);
          collector->live().add_updates(stage.emitted, 0);
        }
      }
    }));
  }
  join_all(tasks);
  return {scanned_total.load(std::memory_order_relaxed),
          emitted.load(std::memory_order_relaxed), 0,
          probed_total.load(std::memory_order_relaxed), skipped};
}

/// Gather (+ apply): partitions with no pending updates keep their
/// state file untouched unless the program applies every round.
///
/// Partition-parallel: each partition to gather is one task
/// (for_each_task — inline in partition order without a pool). A task
/// loads the partition's states, streams its update file through the
/// codec reader, checks every record's routing and folds it into its
/// state, applies, and writes the state file back. Partitions own
/// disjoint vertex ranges, state files and update files, and
/// `next_active` is atomic, so the states and file bytes are the same at
/// every thread count by construction; each cell still sees its updates
/// in file order. Up to `threads` partitions' states are resident at
/// once.
///
/// A masked program's task instead folds the update file into the
/// `tracker`'s mask head (MaskStateTracker::fold) — no state file is
/// read or written — and keeps the file under round_update_file_name
/// for collect_states' replay, logging the round's per-partition record
/// counts in `tracker->round_updates`.
template <graph::GraphProgram P>
void gather_partitions(const graph::PartitionedGraph& pg,
                       const io::StoragePlan& plan,
                       const io::ReaderOptions& reader,
                       std::size_t write_buffer_bytes, const P& program,
                       const std::vector<std::uint64_t>& pending_updates,
                       AtomicBitmap& next_active, const ExecContext& exec = {},
                       metrics::Collector* collector = nullptr,
                       MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  std::vector<std::uint32_t> todo;
  for (std::uint32_t q = 0; q < layout.num_partitions(); ++q) {
    if (pending_updates[q] > 0 || P::kNeedsApply) todo.push_back(q);
  }
  if constexpr (graph::MaskedProgram<P>) {
    static_assert(!P::kNeedsApply, "resident rounds have no apply pass");
    FB_CHECK_MSG(tracker != nullptr, P::kName << " runs need a tracker");
    const auto round =
        static_cast<std::uint32_t>(tracker->round_updates.size());
    tracker->round_updates.push_back(pending_updates);
    for_each_task(exec, todo.size(), [&](std::uint64_t t) {
      const std::uint32_t q = todo[t];
      const std::string name = update_file_name(pg, q);
      {
        metrics::ScopedPhase gather_timer(collector, metrics::Phase::kGather);
        for_each_routed_update<Update>(
            pg, plan.updates(), name, q, reader, [&](const Update& u) {
              if (tracker->fold(u)) next_active.set(u.dst);
            });
      }
      plan.updates().rename(name, round_update_file_name(pg, q, round));
    });
  } else {
    for_each_task(exec, todo.size(), [&](std::uint64_t t) {
      const std::uint32_t q = todo[t];
      const graph::VertexId begin = layout.begin(q);
      std::vector<State> states = read_records<State>(
          plan.state(), state_file_name(pg, q), reader, layout.size(q));
      if (pending_updates[q] > 0) {
        metrics::ScopedPhase gather_timer(collector, metrics::Phase::kGather);
        for_each_routed_update<Update>(
            pg, plan.updates(), update_file_name(pg, q), q, reader,
            [&](const Update& u) {
              if (program.gather(u, states[u.dst - begin])) {
                next_active.set(u.dst);
              }
            });
      }
      if constexpr (P::kNeedsApply) {
        metrics::ScopedPhase apply_timer(collector, metrics::Phase::kApply);
        for (std::uint64_t i = 0; i < states.size(); ++i) {
          program.apply(begin + static_cast<graph::VertexId>(i), states[i]);
        }
      }
      write_records<State>(plan.state(), state_file_name(pg, q), states,
                           write_buffer_bytes);
    });
  }
}

/// Reads the final per-partition state files back in id order: one
/// task per partition decodes straight into its slice of the pre-sized
/// result.
///
/// A masked program's state files still hold the init States, so each
/// task then replays its partition's kept round update files, in round
/// order, through program.gather (routing CHECKed on every record, each
/// file's count checked against the `tracker`'s round log) — exactly the
/// records, order and fold a state-file gather would have applied, so
/// the States come out byte-identical.
template <graph::GraphProgram P>
std::vector<typename P::State> collect_states(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    const io::ReaderOptions& reader, const ExecContext& exec,
    const MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  const graph::PartitionLayout& layout = pg.layout;
  if constexpr (graph::MaskedProgram<P>) {
    FB_CHECK_MSG(tracker != nullptr, P::kName << " runs need a tracker");
  }
  std::vector<State> out(layout.num_vertices());
  for_each_task(exec, layout.num_partitions(), [&](std::uint64_t p) {
    const auto q = static_cast<std::uint32_t>(p);
    const std::string name = state_file_name(pg, q);
    const std::span<State> slice(out.data() + layout.begin(q), layout.size(q));
    auto states = io::codec::open_reader<State>(plan.state(), name, reader);
    std::uint64_t got = 0;
    for (auto batch = states->next_batch(); !batch.empty();
         batch = states->next_batch()) {
      FB_CHECK_MSG(batch.size() <= slice.size() - got,
                   name << " holds more than " << slice.size() << " states");
      std::copy(batch.begin(), batch.end(), slice.begin() + got);
      got += batch.size();
    }
    FB_CHECK_MSG(got == slice.size(), name << " decodes to " << got
                                           << " states, expected "
                                           << slice.size());
    if constexpr (graph::MaskedProgram<P>) {
      const graph::VertexId begin = layout.begin(q);
      for (std::uint32_t r = 0; r < tracker->round_updates.size(); ++r) {
        const std::uint64_t expected = tracker->round_updates[r][q];
        if (expected == 0) continue;
        const std::string round_name = round_update_file_name(pg, q, r);
        const std::uint64_t replayed = for_each_routed_update<
            typename P::Update>(
            pg, plan.updates(), round_name, q, reader,
            [&](const typename P::Update& u) {
              tracker->program.gather(u, slice[u.dst - begin]);
            });
        FB_CHECK_MSG(replayed == expected,
                     round_name << " replays " << replayed
                                << " updates, round " << r << " gathered "
                                << expected);
      }
    }
  });
  return out;
}

/// Removes the run's state and update files from their role devices,
/// including the round update files `round_updates` logs as kept.
void remove_run_files(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    const std::vector<std::vector<std::uint64_t>>& round_updates = {});

}  // namespace fbfs::core::detail

// MultiBfs: MS-BFS-style batched traversal — up to 64 BFS queries share
// one edge scan.
//
// Per-vertex state carries one bit per query in two 64-bit masks:
// `seen` (queries that have reached the vertex) and `frontier` (queries
// for which the vertex is in the current round's frontier). Scatter
// pushes the source's whole frontier mask along each out-edge; gather is
// an idempotent, order-free OR-fold — `fresh = mask & ~seen` — so the
// program runs unmodified through every existing engine layer: the
// chunk-ordered update shuffle, the staging sieve (subset dominance +
// mask-OR merge), the codec auto-selection, core's trimming (a vertex is
// retired once seen by ALL queries), and bottom-up rounds (a dst is
// claimed once its mask saturates).
//
// The level invariant that makes per-query results exact: every update
// emitted in round r carries level r+1 (an active source in round r has
// mark == r — it was activated, and marked, by round r-1's updates; the
// roots scatter mark 0 in round 0). So for each query bit b, the first
// round whose update reaches v with bit b set is exactly BFS-from-
// roots[b]'s level of v, and `levels[b]` reproduces a standalone
// BfsProgram run bit for bit (unpack_query).
//
// Why State keeps a per-round `mark`: gather must clear the stale
// frontier of a vertex the first time a NEW round's update lands on it
// (frontier is "this round's arrivals", seen is forever). Updates carry
// their round's level, so "u.level != s.mark" detects the round change
// without the engine telling states when a round ends — order-free,
// because every update of one round carries the same level.
//
// A round reads and writes only the 24-byte {seen, frontier, mark} head
// of State; the B x 4-byte `levels` tail is output. The mask hooks
// (gather_masks, scatter_masked) work on that head alone, which is what
// lets core::run keep it resident in its MaskStateTracker for every
// vertex and leave the full States on device untouched during rounds:
// it rebuilds `levels` once, at collect, by replaying the rounds' kept
// update files through gather — the same fold, the same records, in the
// same order, so the replayed States are byte-identical to the ones a
// per-round state-file gather would leave.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "graph/program.hpp"
#include "graph/types.hpp"

namespace fbfs::graph {

/// Widest batch one MultiBfs traversal packs (one bit per query in a
/// uint64_t mask). engine::run_batch splits wider source lists.
inline constexpr std::uint32_t kMaxBatchQueries = 64;

template <std::uint32_t B = kMaxBatchQueries>
struct MultiBfs {
  static_assert(B >= 1 && B <= kMaxBatchQueries,
                "query masks are one uint64_t");

  static constexpr const char* kName = "msbfs";
  static constexpr bool kScatterAllVertices = false;
  static constexpr bool kNeedsApply = false;
  static constexpr bool kRequiresUndirected = false;
  // NOT the single-query "an active source never re-activates" licence:
  // a vertex re-enters the frontier whenever a new query reaches it.
  // core::run therefore keys deadness for masked programs on SATURATION
  // (seen == full_mask(): no query can ever gather anything new there,
  // so after the round that scatters its last frontier the out-edges
  // are dead), not on having-been-active.
  static constexpr bool kTrimmable = true;
  // OR-fold with a fresh-bits early-out: duplicate delivery is a no-op.
  static constexpr bool kIdempotentGather = true;

  struct State {
    std::uint64_t seen = 0;      // queries that reached this vertex
    std::uint64_t frontier = 0;  // queries that reached it THIS round
    std::uint32_t mark = 0;      // level of the round `frontier` is from
    std::uint32_t pad = 0;       // keep the on-disk record fully defined
    std::uint32_t levels[B] = {};  // per-query BFS level (kUnreachedLevel)
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t level = 0;
    std::uint64_t mask = 0;  // queries whose frontier crossed the edge
  };

  std::array<VertexId, B> roots{};  // roots[b] = query b's source
  std::uint32_t width = 0;          // live queries: bits [0, width)

  std::uint64_t full_mask() const {
    return width >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << width) - 1;
  }

  void init(VertexId v, std::uint32_t /*out_degree*/, State& s,
            bool& active) const {
    s.seen = 0;
    s.frontier = 0;
    s.mark = 0;
    s.pad = 0;
    for (std::uint32_t b = 0; b < B; ++b) s.levels[b] = kUnreachedLevel;
    for (std::uint32_t b = 0; b < width; ++b) {
      if (roots[b] != v) continue;
      const std::uint64_t bit = std::uint64_t{1} << b;
      s.seen |= bit;
      s.frontier |= bit;
      s.levels[b] = 0;
    }
    active = s.seen != 0;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    return scatter_masked(e, src.frontier, src.mark, out);
  }
  /// scatter() from the source's frontier mask and round mark alone —
  /// the top-down hook for engines that keep the masks resident.
  bool scatter_masked(const Edge& e, std::uint64_t frontier,
                      std::uint32_t mark, Update& out) const {
    out = {e.dst, mark + 1, frontier};
    return true;
  }
  /// The bottom-up hook (MaskedProgram): like BfsProgram::pull, but the
  /// caller supplies the source's frontier mask (restricted to the bits
  /// dst still needs) since the in-edge scan has no source State loaded.
  bool pull_masked(const Edge& e, std::uint32_t round, std::uint64_t mask,
                   Update& out) const {
    out = {e.dst, round + 1, mask};
    return mask != 0;
  }
  std::uint64_t frontier_mask(const State& s) const { return s.frontier; }
  std::uint64_t seen_mask(const State& s) const { return s.seen; }
  std::uint32_t round_mark(const State& s) const { return s.mark; }
  /// The round fold on the mask head alone; returns the fresh query
  /// bits (0: a no-op that mutated nothing). gather() is this plus the
  /// fresh bits' levels.
  std::uint64_t gather_masks(const Update& u, std::uint64_t& seen,
                             std::uint64_t& frontier,
                             std::uint32_t& mark) const {
    const std::uint64_t fresh = u.mask & ~seen;
    // The early-out must come BEFORE any mutation: top-down rounds
    // deliver redundant updates that bottom-up rounds (restricted
    // masks + claiming) never emit, and direction equivalence needs
    // both to leave byte-identical states.
    if (fresh == 0) return 0;
    if (u.level != mark) {  // first arrival of a new round
      frontier = 0;
      mark = u.level;
    }
    seen |= fresh;
    frontier |= fresh;
    return fresh;
  }
  bool gather(const Update& u, State& s) const {
    const std::uint64_t fresh = gather_masks(u, s.seen, s.frontier, s.mark);
    for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
      s.levels[std::countr_zero(bits)] = u.level;
    }
    return fresh != 0;
  }
  void apply(VertexId, State&) const {}
  /// Subset dominance: b is redundant after a when it brings no new
  /// query bits. Same-dst updates within one scatter window all carry
  /// the same level (the round invariant above), which is what makes
  /// the mask-OR merge equivalent to delivering both.
  bool dominates(const Update& a, const Update& b) const {
    return b.level >= a.level && (b.mask & ~a.mask) == 0;
  }
  void sieve_merge(Update& champion, const Update& u) const {
    champion.mask |= u.mask;
  }
  std::uint64_t output(VertexId, const State& s) const { return s.seen; }

  /// Query b's standalone-BFS view of a finished batch run —
  /// bit-identical to inmem::run(BfsProgram{.root = roots[b]}) by the
  /// level invariant (unreached stays kUnreachedLevel from init).
  std::vector<BfsProgram::State> unpack_query(
      std::uint32_t b, std::span<const State> states) const {
    FB_CHECK_MSG(b < width, "unpack_query(" << b << ") of a width-"
                                            << width << " batch");
    std::vector<BfsProgram::State> out(states.size());
    for (std::size_t v = 0; v < states.size(); ++v) {
      out[v].level = states[v].levels[b];
    }
    return out;
  }
};

static_assert(GraphProgram<MultiBfs<64>>);
static_assert(SieveCapable<MultiBfs<64>>);
static_assert(MaskedProgram<MultiBfs<64>>);
static_assert(MaskedProgram<MultiBfs<7>>);
// Masked programs pull through pull_masked, not the single-query hook.
static_assert(!PullCapable<MultiBfs<64>>);
// dst at offset 0 (RoutedRecord), one 8-byte mask + dst/level packed.
static_assert(sizeof(MultiBfs<64>::Update) == 16);
static_assert(sizeof(MultiBfs<64>::State) == 24 + 64 * 4);

}  // namespace fbfs::graph

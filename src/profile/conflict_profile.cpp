#include "profile/conflict_profile.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace xoridx::profile {

namespace {

// Checked before the table is allocated: a rejected width must not first
// cost a 2^n-entry allocation.
std::size_t table_size(int hashed_bits) {
  if (hashed_bits < 1 || hashed_bits > 24)
    throw std::invalid_argument(
        "hashed_bits must be in [1, 24] for the dense table");
  return std::size_t{1} << hashed_bits;
}

}  // namespace

ConflictProfile::ConflictProfile(int hashed_bits,
                                 std::uint32_t capacity_blocks)
    : n_(hashed_bits),
      capacity_blocks_(capacity_blocks),
      table_(table_size(hashed_bits), 0) {}

namespace {

/// Copy the value state (table + bookkeeping) of `from` into `to`. The
/// zeta cache is deliberately not part of the value: each object owns a
/// private lazily-rebuilt one.
void assign_value_state(ConflictProfile& to, const ConflictProfile& from) {
  to.references = from.references;
  to.compulsory_refs = from.compulsory_refs;
  to.capacity_filtered_refs = from.capacity_filtered_refs;
  to.profiled_refs = from.profiled_refs;
  to.pair_count = from.pair_count;
}

}  // namespace

ConflictProfile::ConflictProfile(const ConflictProfile& other)
    : n_(other.n_),
      capacity_blocks_(other.capacity_blocks_),
      table_(other.table_) {
  assign_value_state(*this, other);
}

ConflictProfile& ConflictProfile::operator=(const ConflictProfile& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  capacity_blocks_ = other.capacity_blocks_;
  table_ = other.table_;
  assign_value_state(*this, other);
  zeta_ = std::make_unique<ZetaCache>();
  return *this;
}

ConflictProfile::ConflictProfile(ConflictProfile&& other) noexcept
    : n_(other.n_),
      capacity_blocks_(other.capacity_blocks_),
      table_(std::move(other.table_)),
      zeta_(std::move(other.zeta_)) {
  assign_value_state(*this, other);
}

ConflictProfile& ConflictProfile::operator=(ConflictProfile&& other) noexcept {
  if (this == &other) return *this;
  n_ = other.n_;
  capacity_blocks_ = other.capacity_blocks_;
  table_ = std::move(other.table_);
  assign_value_state(*this, other);
  zeta_ = std::move(other.zeta_);
  return *this;
}

const std::vector<std::uint64_t>& ConflictProfile::subset_sums() const {
  std::call_once(zeta_->once, [this] {
    XORIDX_SPAN("profile", "zeta_build");
    XORIDX_OBS_COUNT("profile.zeta_builds", 1);
    // Standard subset-sum DP: after processing bit b, z[u] holds the sum
    // of table entries over all v that match u on bits > b and are
    // submasks of u on bits <= b — n * 2^n adds in total. The build is
    // the whole cold cost of the O(1) bit-select estimator, so the low
    // three bit levels are fused into one in-register pass over blocks of
    // eight, and the remaining levels stream disjoint halves the
    // compiler can vectorize.
    std::vector<std::uint64_t> z = table_;
    const std::size_t size = z.size();
    std::uint64_t* const zp = z.data();
    int bit = 0;
    if (n_ >= 3) {
      for (std::size_t b = 0; b < size; b += 8) {
        std::uint64_t a0 = zp[b], a1 = zp[b + 1], a2 = zp[b + 2],
                      a3 = zp[b + 3], a4 = zp[b + 4], a5 = zp[b + 5],
                      a6 = zp[b + 6], a7 = zp[b + 7];
        a1 += a0; a3 += a2; a5 += a4; a7 += a6;  // bit 0
        a2 += a0; a3 += a1; a6 += a4; a7 += a5;  // bit 1
        a4 += a0; a5 += a1; a6 += a2; a7 += a3;  // bit 2
        zp[b + 1] = a1; zp[b + 2] = a2; zp[b + 3] = a3; zp[b + 4] = a4;
        zp[b + 5] = a5; zp[b + 6] = a6; zp[b + 7] = a7;
      }
      bit = 3;
    }
    // Remaining levels two at a time: quarters q0..q3 of a 4*stride
    // block combine as q1+=q0, q2+=q0, q3+=q0+q1+q2 — one fused pass
    // with half the loads and stores of two single-level passes.
    for (; bit + 1 < n_; bit += 2) {
      const std::size_t stride = std::size_t{1} << bit;
      for (std::size_t block = 0; block < size; block += 4 * stride) {
        const std::uint64_t* __restrict q0 = zp + block;
        std::uint64_t* __restrict q1 = zp + block + stride;
        std::uint64_t* __restrict q2 = zp + block + 2 * stride;
        std::uint64_t* __restrict q3 = zp + block + 3 * stride;
        for (std::size_t i = 0; i < stride; ++i) {
          const std::uint64_t v0 = q0[i];
          const std::uint64_t v1 = q1[i] + v0;
          q1[i] = v1;
          const std::uint64_t v2 = q2[i];
          q2[i] = v2 + v0;
          q3[i] += v2 + v1;
        }
      }
    }
    if (bit < n_) {
      const std::size_t stride = std::size_t{1} << bit;
      for (std::size_t block = 0; block < size; block += 2 * stride) {
        const std::uint64_t* __restrict lo = zp + block;
        std::uint64_t* __restrict hi = zp + block + stride;
        for (std::size_t i = 0; i < stride; ++i) hi[i] += lo[i];
      }
    }
    zeta_->table = std::move(z);
    zeta_->built.store(true, std::memory_order_release);
  });
  return zeta_->table;
}

std::uint64_t ConflictProfile::estimate_misses(
    const gf2::Subspace& ns) const {
  if (ns.ambient_dim() != n_)
    throw std::invalid_argument("null space dimension != hashed bits");
  std::uint64_t total = 0;
  ns.for_each_member([&](gf2::Word v) { total += misses(v); });
  return total;
}

std::uint64_t ConflictProfile::total_mass() const {
  std::uint64_t total = 0;
  for (std::size_t v = 1; v < table_.size(); ++v) total += table_[v];
  return total;
}

std::size_t ConflictProfile::distinct_vectors() const {
  std::size_t count = 0;
  for (std::size_t v = 1; v < table_.size(); ++v)
    if (table_[v] != 0) ++count;
  return count;
}

namespace {

/// Every block seen so far, with whether it is inside the profiler's
/// window. Open addressing with linear probing; blocks are never removed,
/// so there are no tombstones.
class SeenBlocks {
 public:
  enum State : std::uint8_t { kAbsent, kOutside, kInside };

  /// Mark `block` inside the window; returns its previous state.
  State enter(std::uint64_t block) {
    std::size_t i = find(block);
    const State was = slots_[i].state;
    if (was == kAbsent) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        i = find(block);
      }
      slots_[i].block = block;
      ++size_;
    }
    slots_[i].state = kInside;
    return was;
  }

  /// Mark a block already seen as outside the window.
  void leave(std::uint64_t block) { slots_[find(block)].state = kOutside; }

 private:
  struct Slot {
    std::uint64_t block = 0;
    State state = kAbsent;
  };

  std::size_t find(std::uint64_t block) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (block * 0x9E3779B97F4A7C15ull) >> hash_shift_);
    while (slots_[i].state != kAbsent && slots_[i].block != block)
      i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
    --hash_shift_;
    for (const Slot& s : old)
      if (s.state != kAbsent) slots_[find(s.block)] = s;
  }

  std::vector<Slot> slots_ = std::vector<Slot>(1024);
  int hash_shift_ = 64 - 10;
  std::size_t size_ = 0;
};

/// Figure 1 as a per-access state machine, fed batch by batch, so an
/// in-memory and a streamed trace run the exact same sequence of steps
/// (and therefore produce identical profiles).
///
/// A block's reuse distance is its depth on the LRU stack, and Figure 1
/// drops every reference whose distance exceeds the cache size L (in
/// blocks). So only the top L+1 stack entries can ever matter, and they
/// are the whole state: a flat window of the L+1 most recently used
/// blocks, plus one flag per block ever seen saying whether it is inside
/// the window. The scan that finds a block in the window is the scan that
/// emits its conflict pairs, and it moves the block to the top on the way.
/// Memory scales with L and the footprint, never with trace length.
class ProfileBuildState {
 public:
  ProfileBuildState(ConflictProfile& profile,
                    const cache::CacheGeometry& geometry, int hashed_bits)
      : profile_(profile),
        mask_(gf2::mask_of(hashed_bits)),
        shift_(geometry.offset_bits()),
        window_size_(std::size_t{geometry.num_blocks()} + 1),
        // Twice the window, so the live range is recompacted to the front
        // only once per window_size_ pushes.
        buf_(2 * window_size_) {}

  // Out of line and cache-line aligned, like DirectMappedCache::run: the
  // pair loop below is almost all of a table2 campaign, and its speed
  // moved by ~12% (4-vCPU Xeon) with where it fell relative to a 64-byte
  // line. Inlined into the per-batch loop, it crossed one.
  [[gnu::noinline, gnu::aligned(64)]] void step(std::uint64_t addr) {
    const std::uint64_t block = addr >> shift_;
    ++profile_.references;
    const SeenBlocks::State was = seen_.enter(block);
    if (was == SeenBlocks::kAbsent) {
      ++profile_.compulsory_refs;
      push(block);
    } else if (was == SeenBlocks::kOutside) {
      ++profile_.capacity_filtered_refs;
      push(block);
    } else {
      ++profile_.profiled_refs;
      // Walk down from the top (most recent last in buf_): every block
      // passed is one referenced since the previous use of `block`. Each
      // slides one down, and `block` lands on top.
      std::uint64_t* slot = buf_.data() + end_;
      std::uint64_t carry = block;
      std::uint64_t pairs = 0;
      for (;;) {
        const std::uint64_t above = *--slot;
        *slot = carry;
        if (above == block) break;
        profile_.add((block ^ above) & mask_);
        ++pairs;
        carry = above;
      }
      profile_.pair_count += pairs;
    }
  }

 private:
  // Put a block that is outside the window on top, evicting the bottom
  // entry once the window is full.
  void push(std::uint64_t block) {
    if (end_ - begin_ == window_size_) seen_.leave(buf_[begin_++]);
    if (end_ == buf_.size()) {
      std::copy(buf_.begin() + begin_, buf_.end(), buf_.begin());
      end_ -= begin_;
      begin_ = 0;
    }
    buf_[end_++] = block;
  }

  ConflictProfile& profile_;
  const gf2::Word mask_;
  const int shift_;
  const std::size_t window_size_;
  std::vector<std::uint64_t> buf_;  // window = buf_[begin_, end_), top last
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  SeenBlocks seen_;
};

/// Figure 1's accounting: every reference is compulsory, capacity-filtered
/// or profiled, and every emitted pair lands in exactly one counter.
[[maybe_unused]] bool accounting_holds(const ConflictProfile& p) {
  return p.references ==
             p.compulsory_refs + p.capacity_filtered_refs + p.profiled_refs &&
         p.misses(0) + p.total_mass() == p.pair_count;
}

}  // namespace

ConflictProfile build_conflict_profile(tracestore::TraceInput t,
                                       const cache::CacheGeometry& geometry,
                                       int hashed_bits) {
  ConflictProfile profile(hashed_bits, geometry.num_blocks());
  ProfileBuildState state(profile, geometry, hashed_bits);
  t.for_each_batch([&state](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) state.step(a.addr);
  });
  assert(accounting_holds(profile));
  return profile;
}

}  // namespace xoridx::profile

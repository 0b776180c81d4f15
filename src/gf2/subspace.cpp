#include "gf2/subspace.hpp"

#include <algorithm>
#include <cassert>

#include "io/fnv.hpp"

namespace xoridx::gf2 {

Subspace::Subspace(int ambient_dim) : n_(ambient_dim) {
  assert(ambient_dim >= 0 && ambient_dim <= max_bits);
}

Subspace Subspace::span_of(int ambient_dim, std::span<const Word> vectors) {
  Subspace s(ambient_dim);
  for (Word v : vectors) s.insert(v);
  return s;
}

Word Subspace::reduce(Word v) const {
  for (Word b : basis_) {
    if (get_bit(v, leading_bit(b))) v ^= b;
  }
  return v;
}

bool Subspace::contains(const Subspace& other) const {
  for (Word b : other.basis_)
    if (!contains(b)) return false;
  return true;
}

bool Subspace::insert(Word v) {
  assert((v & ~mask_of(n_)) == 0);
  v = reduce(v);
  if (v == 0) return false;
  canonicalize_insertion(v);
  return true;
}

void Subspace::canonicalize_insertion(Word v) {
  // v is already reduced: its leading bit is not a pivot of any basis
  // vector. Clear that bit from existing vectors to preserve RREF, then
  // insert keeping leading bits descending.
  const int pivot = leading_bit(v);
  for (Word& b : basis_) {
    if (get_bit(b, pivot)) b ^= v;
  }
  const auto pos = std::lower_bound(
      basis_.begin(), basis_.end(), v,
      [](Word a, Word b) { return leading_bit(a) > leading_bit(b); });
  basis_.insert(pos, v);
}

Subspace Subspace::sum(const Subspace& other) const {
  assert(n_ == other.n_);
  Subspace s = *this;
  for (Word b : other.basis_) s.insert(b);
  return s;
}

Subspace Subspace::intersect(const Subspace& other) const {
  assert(n_ == other.n_);
  assert(2 * n_ <= 128);
  // Zassenhaus: row-reduce the block matrix [U | U; W | 0]. Rows whose
  // left half becomes zero have right halves spanning U ∩ W.
  using Wide = unsigned __int128;
  std::vector<Wide> rows;
  rows.reserve(basis_.size() + other.basis_.size());
  for (Word u : basis_)
    rows.push_back((static_cast<Wide>(u) << n_) | static_cast<Wide>(u));
  for (Word w : other.basis_) rows.push_back(static_cast<Wide>(w) << n_);

  Subspace inter(n_);
  // Eliminate on the left half, most significant bit first.
  std::size_t used = 0;
  for (int bit = 2 * n_ - 1; bit >= n_; --bit) {
    const Wide mask = Wide{1} << bit;
    std::size_t pivot = used;
    while (pivot < rows.size() && (rows[pivot] & mask) == 0) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[used], rows[pivot]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r != used && (rows[r] & mask) != 0) rows[r] ^= rows[used];
    }
    ++used;
  }
  const Wide right_mask = (Wide{1} << n_) - 1;
  for (std::size_t r = used; r < rows.size(); ++r) {
    const Word right = static_cast<Word>(rows[r] & right_mask);
    if (right != 0) inter.insert(right);
  }
  return inter;
}

bool Subspace::trivially_intersects(const Subspace& other) const {
  // dim(U ∩ W) = dim U + dim W - dim(U + W); avoid Zassenhaus when a
  // dimension count suffices.
  return sum(other).dim() == dim() + other.dim();
}

std::vector<Word> Subspace::complement_basis() const {
  Word pivots = 0;
  for (Word b : basis_) pivots |= unit(leading_bit(b));
  std::vector<Word> comp;
  comp.reserve(static_cast<std::size_t>(n_ - dim()));
  for (int i = 0; i < n_; ++i)
    if (!get_bit(pivots, i)) comp.push_back(unit(i));
  return comp;
}

std::vector<Word> Subspace::members() const {
  std::vector<Word> out;
  out.reserve(std::size_t{1} << dim());
  for_each_member([&out](Word v) { out.push_back(v); });
  return out;
}

std::size_t Subspace::hash() const noexcept {
  std::size_t h = io::fnv1a_short_basis;
  for (Word b : basis_) {
    h ^= static_cast<std::size_t>(b);
    h *= io::fnv1a_prime;
  }
  h ^= static_cast<std::size_t>(n_);
  h *= io::fnv1a_prime;
  return h;
}

std::string Subspace::to_string() const {
  std::string s = "span{";
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    if (i > 0) s += ", ";
    s += to_bit_string(basis_[i], n_);
  }
  s += "}";
  return s;
}

Subspace null_space(const Matrix& h) {
  const int n = h.rows();
  const int m = h.cols();
  // Row-reduce the augmented rows [x | xH] starting from [e_r | row_r]:
  // combinations whose right half vanishes give kernel vectors.
  struct AugRow {
    Word x;
    Word hx;
  };
  std::vector<AugRow> rows(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    rows[static_cast<std::size_t>(r)] = {unit(r), h.row(r)};

  std::size_t used = 0;
  for (int c = m - 1; c >= 0; --c) {
    std::size_t pivot = used;
    while (pivot < rows.size() && !get_bit(rows[pivot].hx, c)) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[used], rows[pivot]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r != used && get_bit(rows[r].hx, c)) {
        rows[r].hx ^= rows[used].hx;
        rows[r].x ^= rows[used].x;
      }
    }
    ++used;
  }
  Subspace ns(n);
  for (std::size_t r = used; r < rows.size(); ++r) {
    assert(rows[r].hx == 0);
    ns.insert(rows[r].x);
  }
  return ns;
}

Matrix matrix_from_null_space(const Subspace& ns) {
  const int n = ns.ambient_dim();
  const int m = n - ns.dim();
  // Free (non-pivot) coordinates, ascending; output bit j of the hash is
  // coordinate free[j] of the reduced address.
  std::vector<int> free_pos;
  free_pos.reserve(static_cast<std::size_t>(m));
  Word pivots = 0;
  for (Word b : ns.basis()) pivots |= unit(leading_bit(b));
  for (int i = 0; i < n; ++i)
    if (!get_bit(pivots, i)) free_pos.push_back(i);
  assert(static_cast<int>(free_pos.size()) == m);

  Matrix h(n, m);
  for (int r = 0; r < n; ++r) {
    const Word residue = ns.reduce(unit(r));
    Word out = 0;
    for (int j = 0; j < m; ++j)
      if (get_bit(residue, free_pos[static_cast<std::size_t>(j)]))
        out |= unit(j);
    h.set_row(r, out);
  }
  return h;
}

Subspace random_subspace(int n, int d, std::mt19937_64& rng) {
  assert(d >= 0 && d <= n);
  Subspace s(n);
  while (s.dim() < d) s.insert(rng() & mask_of(n));
  return s;
}

}  // namespace xoridx::gf2

/**
 * @file
 * Densifying a CSR matrix and random matrix synthesis helpers.
 *
 * Densifying reads a CSR matrix's values, so it rejects a
 * structure-only matrix (CsrMatrix::hasValues()).
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"
#include "util/random.hpp"

namespace grow::sparse {

/** Densify a CSR matrix. */
DenseMatrix toDense(const CsrMatrix &m);

/**
 * Random CSR matrix with i.i.d. Bernoulli(@p density) non-zero pattern
 * and uniform values in [-1, 1). Used to synthesise GCN feature matrices
 * X at the densities reported in Table I.
 *
 * Positions are drawn in row-major order by geometric skipping: each
 * non-zero costs one draw for the gap before it (GeometricSkip) and one
 * for its value, so the CSR arrays are written as they are drawn. The
 * value is drawn even when @p with_values is false and the matrix is
 * left structure-only: the pattern, and every later draw on @p rng, is
 * the same either way. A gap that reaches past the last position ends
 * the matrix, so a density far below 1 / (rows * cols) gives an empty
 * one.
 */
CsrMatrix randomCsr(uint32_t rows, uint32_t cols, double density, Rng &rng,
                    bool with_values = true);

/**
 * The gap before the next non-zero of a Bernoulli(p) pattern, as a
 * function of one draw. A draw's top 53 bits j give u = 1 - j * 2^-53,
 * exactly m * 2^-53 for the integer m = 2^53 - j in [1, 2^53], and the
 * gap is the inverse geometric CDF floor(log(u) / log1p(-p)) evaluated
 * in double precision: formula().
 *
 * That expression is non-increasing in m, so it is fixed by thresholds:
 * T[k] is the least m whose gap is at most k, found with the formula
 * itself from an estimate 2^53 (1 - p)^(k + 1), and a draw's gap is the
 * first k with T[k] <= m. The table covers the gaps that all but about
 * 2^-10 of the draws take; a draw beyond it, and every draw when the
 * table would be large against the expected number of non-zeros, falls
 * back to the formula. Both paths give the same gap for every m.
 */
class GeometricSkip
{
  public:
    /** m of u = 1: the largest draw value. */
    static constexpr uint64_t kMaxDraw = uint64_t{1} << 53;

    /**
     * Gaps of a pattern of density @p density in (0, 1) that is
     * expected to hold @p expected_nnz non-zeros; the table is built
     * only when it is small against that count.
     */
    GeometricSkip(double density, double expected_nnz);

    /** The gap of draw value @p m in [1, 2^53]. */
    uint64_t
    operator()(uint64_t m) const
    {
        if (thresholds_.empty())
            return formula(m);
        // double(m) is exact; its exponent and top mantissa bits are
        // m's octave and the bits after its leading one.
        const int64_t key = static_cast<int64_t>(
            std::bit_cast<uint64_t>(static_cast<double>(m)) >> keyShift_);
        uint32_t k = start_[std::max<int64_t>(key - keyBase_, 0)];
        k += thresholds_[k] > m; // a bucket rarely holds two thresholds
        while (thresholds_[k] > m) // the sentinel 0 stops the scan
            ++k;
        return k < count_ ? k : formula(m);
    }

    /**
     * The defining expression for @p m in [1, 2^53], saturated at
     * UINT64_MAX where it exceeds the uint64_t range.
     */
    uint64_t formula(uint64_t m) const;

    /** T[0], T[1], ... followed by a 0 sentinel; empty without table. */
    const std::vector<uint64_t> &thresholds() const { return thresholds_; }

  private:
    double log1mp_;
    /**
     * Buckets on m's leading bits. With L the octave of the least
     * threshold and B bits per octave, bucket 0 holds every m below
     * 2^L (all beyond the table) and bucket 1 + (o << B | j) the m of
     * octave L + o whose next B bits are j: the bits of double(m)
     * shifted right by keyShift_, less keyBase_. Every gap in bucket b
     * is at least start_[b].
     */
    unsigned keyShift_ = 0;
    int64_t keyBase_ = 0;
    /** Thresholds before the sentinel. */
    uint32_t count_ = 0;
    std::vector<uint32_t> start_;
    std::vector<uint64_t> thresholds_;
};

/** Random dense matrix with uniform values in [-1, 1). */
DenseMatrix randomDense(uint32_t rows, uint32_t cols, Rng &rng);

} // namespace grow::sparse

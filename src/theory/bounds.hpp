// Closed-form regret bounds (Theorems 1–4) and the comparison constants the
// paper quotes. The theory bench prints these next to measured regret so
// EXPERIMENTS.md can record bound-vs-measured for every figure.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ncb {

/// Theorem 1 — DFL-SSO: R_n ≤ 15.94·sqrt(nK) + 0.74·C·sqrt(n/K), with C the
/// clique-cover size of the thresholded subgraph H.
[[nodiscard]] double theorem1_bound(std::int64_t n, std::size_t k,
                                    std::size_t clique_cover_size);

/// Theorem 2 — DFL-CSO: same form over com-arms,
/// R_n ≤ 15.94·sqrt(n|F|) + 0.74·C·sqrt(n/|F|).
[[nodiscard]] double theorem2_bound(std::int64_t n, std::size_t family_size,
                                    std::size_t clique_cover_size);

/// The traditional distribution-free bound 49·sqrt(n|F|) the paper quotes as
/// the comparison point for Theorem 2 (MOSS over |F| independent com-arms).
[[nodiscard]] double moss_comarm_bound(std::int64_t n, std::size_t family_size);

/// MOSS single-play bound 49·sqrt(nK) (Audibert–Bubeck), the Fig. 3 baseline.
[[nodiscard]] double moss_bound(std::int64_t n, std::size_t k);

/// Theorem 3 — DFL-SSR: R_n ≤ 49·K·sqrt(nK) (the [0,K] reward range scales
/// the normalized MOSS bound by K).
[[nodiscard]] double theorem3_bound(std::int64_t n, std::size_t k);

/// Theorem 4 — DFL-CSR:
/// R(n) ≤ NK + (sqrt(eK) + 8(1+N)N³)·n^{2/3} + (1 + 4·sqrt(K)·N²/e)·N²K·n^{5/6},
/// with N = max_x |Y_x|.
[[nodiscard]] double theorem4_bound(std::int64_t n, std::size_t k,
                                    std::size_t max_neighborhood);

}  // namespace ncb

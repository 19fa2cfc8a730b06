#include "theory/bounds.hpp"

#include <cmath>

namespace ncb {
namespace {
constexpr double kE = 2.718281828459045;
}  // namespace

double theorem1_bound(std::int64_t n, std::size_t k,
                      std::size_t clique_cover_size) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return 15.94 * std::sqrt(dn * dk) +
         0.74 * static_cast<double>(clique_cover_size) * std::sqrt(dn / dk);
}

double theorem2_bound(std::int64_t n, std::size_t family_size,
                      std::size_t clique_cover_size) {
  return theorem1_bound(n, family_size, clique_cover_size);
}

double moss_comarm_bound(std::int64_t n, std::size_t family_size) {
  return 49.0 * std::sqrt(static_cast<double>(n) *
                          static_cast<double>(family_size));
}

double moss_bound(std::int64_t n, std::size_t k) {
  return 49.0 * std::sqrt(static_cast<double>(n) * static_cast<double>(k));
}

double theorem3_bound(std::int64_t n, std::size_t k) {
  const double dk = static_cast<double>(k);
  return 49.0 * dk * std::sqrt(static_cast<double>(n) * dk);
}

double theorem4_bound(std::int64_t n, std::size_t k,
                      std::size_t max_neighborhood) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double dN = static_cast<double>(max_neighborhood);
  const double term1 = dN * dk;
  const double term2 =
      (std::sqrt(kE * dk) + 8.0 * (1.0 + dN) * dN * dN * dN) *
      std::pow(dn, 2.0 / 3.0);
  const double term3 = (1.0 + 4.0 * std::sqrt(dk) * dN * dN / kE) * dN * dN *
                       dk * std::pow(dn, 5.0 / 6.0);
  return term1 + term2 + term3;
}

}  // namespace ncb

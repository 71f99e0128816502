#include "common/quadrature.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace oscs {

namespace {

/// Value and derivative of the Legendre polynomial P_n at x, by the
/// three-term recurrence.
struct LegendreEval {
  double p;       // P_n(x)
  double dp;      // P_n'(x)
};

LegendreEval legendre(std::size_t n, double x) {
  double p0 = 1.0;  // P_0
  double p1 = x;    // P_1
  if (n == 0) return {p0, 0.0};
  for (std::size_t k = 2; k <= n; ++k) {
    const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
    p0 = p1;
    p1 = pk;
  }
  // Derivative identity: (1-x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)).
  const double dp = n * (p0 - x * p1) / (1.0 - x * x);
  return {p1, dp};
}

double simpson(double a, double fa, double b, double fb, double fm) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive_step(const std::function<double(double)>& f, double a,
                     double fa, double b, double fb, double m, double fm,
                     double whole, double tol, int depth) {
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(a, fa, m, fm, flm);
  const double right = simpson(m, fm, b, fb, frm);
  const double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive_step(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) +
         adaptive_step(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1);
}

}  // namespace

QuadratureRule gauss_legendre(std::size_t n) {
  if (n == 0) throw std::invalid_argument("gauss_legendre: n must be >= 1");
  QuadratureRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);
  const std::size_t m = (n + 1) / 2;  // roots come in +/- pairs
  for (std::size_t i = 0; i < m; ++i) {
    // Chebyshev-like initial guess for the i-th root of P_n.
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    for (int it = 0; it < 100; ++it) {
      const LegendreEval e = legendre(n, x);
      const double step = e.p / e.dp;
      x -= step;
      if (std::fabs(step) < 1e-15) break;
    }
    const LegendreEval e = legendre(n, x);
    const double w = 2.0 / ((1.0 - x * x) * e.dp * e.dp);
    rule.nodes[i] = -x;
    rule.weights[i] = w;
    rule.nodes[n - 1 - i] = x;
    rule.weights[n - 1 - i] = w;
  }
  return rule;
}

namespace {

/// Rules of up to 256 points (the range gauss_legendre is accurate for)
/// are memoized; larger ones are rebuilt on every call.
constexpr std::size_t kMemoizedRules = 257;

/// The n-point rule, built once per n and shared by every thread. Lookup
/// is one acquire load; two threads racing on a cold n both build the
/// (identical) rule and the loser frees its copy. Published rules are
/// never freed, so references stay valid for the process lifetime.
const QuadratureRule& memoized_rule(std::size_t n) {
  static std::array<std::atomic<const QuadratureRule*>, kMemoizedRules>
      rules{};
  std::atomic<const QuadratureRule*>& slot = rules[n];
  const QuadratureRule* rule = slot.load(std::memory_order_acquire);
  if (rule == nullptr) {
    auto fresh = std::make_unique<const QuadratureRule>(gauss_legendre(n));
    if (slot.compare_exchange_strong(rule, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      rule = fresh.release();
    }
  }
  return *rule;
}

}  // namespace

double integrate_gl(const std::function<double(double)>& f, double a, double b,
                    std::size_t n) {
  const QuadratureRule large =
      n < kMemoizedRules ? QuadratureRule{} : gauss_legendre(n);
  const QuadratureRule& rule = n < kMemoizedRules ? memoized_rule(n) : large;
  const double half = 0.5 * (b - a);
  const double mid = 0.5 * (a + b);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += rule.weights[i] * f(mid + half * rule.nodes[i]);
  }
  return half * sum;
}

double integrate_adaptive(const std::function<double(double)>& f, double a,
                          double b, double tol, int max_depth) {
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fb = f(b);
  const double fm = f(m);
  const double whole = simpson(a, fa, b, fb, fm);
  return adaptive_step(f, a, fa, b, fb, m, fm, whole, tol, max_depth);
}

}  // namespace oscs

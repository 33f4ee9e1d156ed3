// The benchmark workloads and the traced layer walk (perfbench/README.md).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "bst.h"

namespace perfbench {
namespace {

using namespace bst;
using la::index_t;

// Problem sizes.  Every operation is sized so that one run of the default
// length collects well over 1000 latency samples (p99 then has at least ten
// samples beyond it), and every setup does a few tenths of a second of real
// work.  README.md gives the measurements behind each choice.
struct Sizes {
  index_t cold_m, cold_p;  // layer walk's cold SPD solve: block size, blocks
  index_t svc_m, svc_p;    // service_zipf: block size, blocks
  int svc_keys, svc_fit;   //   distinct matrices; factors the cache holds
  int svc_rhs, svc_inflight;  // right-hand sides per matrix; closed-loop depth
  index_t ind_n;           // indefinite_refine: order (m = 1)
  int ind_pool;
  index_t t3d_m, t3d_p;    // layer walk's T3D simulation: block size, blocks
  int t3d_np, t3d_group;
  int setup_reps;          // set-ups per run (setup_s is their median)
  int walk_reps;           // repetitions of each call in the layer walk
  int walk_requests;       // requests in the layer walk's service burst
};

constexpr Sizes kFull{16, 64, 8, 128, 18, 15, 4, 32, 320, 48, 4, 192, 16, 2, 5, 21, 256};
constexpr Sizes kTiny{4, 16, 4, 16, 6, 4, 2, 8, 48, 4, 2, 32, 4, 2, 2, 3, 24};

// Relative backward error every solve must meet (measured: at most 6e-16 on
// indefinite_refine's systems and 4e-16 on order-1024 SPD ones;
// Bojanczyk-de Hoog-Brent bound the Schur factorization's backward error by
// a modest multiple of the unit roundoff).
constexpr double kBackwardTol = 1e-12;

// The indefinite systems are a fixed corpus: the number of refinement steps
// a system needs (2..7, depending on both the matrix and the right-hand
// side) sets the cost of its solve, so a seed-drawn corpus moved the median
// between the 3-step and 4-step cost levels from run to run.  The seed draws
// the visiting order.
constexpr std::uint64_t kIndefiniteCorpusSeed = 0x51ab1e;

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL + b + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> random_vector(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.normal();
  return v;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) {
    if (!std::isfinite(x)) return std::numeric_limits<double>::infinity();
    m = std::max(m, std::abs(x));
  }
  return m;
}

/// ||b - T x||_inf / (||T||_inf ||x||_inf + ||b||_inf) against the exact
/// operator; infinity for a wrong-sized or non-finite x.
double backward_error(const toeplitz::MatVec& op, double tnorm, const std::vector<double>& b,
                      const std::vector<double>& x) {
  if (x.size() != b.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> r;
  op.residual(b, x, r);
  return max_abs(r) / (tnorm * max_abs(x) + max_abs(b));
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Serial workloads: one operation at a time, answer checked after the
// operation's clock has stopped.

struct LoopStats {
  std::vector<double> lat_s;                 // completed operations
  std::vector<double> traced_s, untraced_s;  // the same, split (traced runs)
  std::uint64_t attempted = 0, passed = 0;
  double window_s = 0.0;                     // time the operations ran
};

class Serial {
 public:
  virtual ~Serial() = default;
  /// Builds the inputs from scratch and pays the one-time warm-up.
  virtual void setup() = 0;
  /// The timed operation; keeps its answer for check().  Throws on failure.
  virtual void run(std::size_t op, SpanLog& spans) = 0;
  /// Checks the answer of the last run().
  virtual bool check(std::size_t op) = 0;
  /// Damages the answer of the last run() (negative test).
  virtual void corrupt() = 0;
  /// Number of inputs the operations cycle through.
  [[nodiscard]] virtual std::size_t pool() const = 0;
};

LoopStats serial_loop(Serial& w, const Config& cfg, SpanLog& spans) {
  LoopStats st;
  const std::uint64_t wall0 = now_ns();
  // A guard on wall time as well: checks run off the clock.
  const double wall_cap = 3.0 * cfg.seconds + 30.0;
  for (std::size_t op = 0; st.window_s < cfg.seconds; ++op) {
    if (static_cast<double>(now_ns() - wall0) * 1e-9 > wall_cap) break;
    // Every input is traced in alternate rounds over the pool, so traced and
    // untraced operations carry the same mix of inputs.
    const bool traced = cfg.trace && (op / w.pool() + op % w.pool()) % 2 == 0;
    spans.set_recording(traced);
    bool completed = false;
    const std::uint64_t t0 = now_ns();
    try {
      SpanLog::Scope s(spans, "op", op);
      w.run(op, spans);
      completed = true;
    } catch (const std::exception&) {
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    st.window_s += dt;
    ++st.attempted;
    if (!completed) continue;
    st.lat_s.push_back(dt);
    (traced ? st.traced_s : st.untraced_s).push_back(dt);
    if (cfg.corrupt_one && op == 0) w.corrupt();
    SpanLog::Scope s(spans, "check", op);
    try {
      if (w.check(op)) ++st.passed;
    } catch (const std::exception&) {
    }
  }
  spans.set_recording(false);
  return st;
}

toeplitz::BlockToeplitz cold_matrix(const Sizes& z, std::uint64_t seed, std::size_t i) {
  return toeplitz::random_spd_block(z.cold_m, z.cold_p, 4, mix(seed, 1, i));
}

core::SolveOptions cold_options() {
  core::SolveOptions o;
  o.policy.kind = core::SolverKind::Schur;
  o.spd.rep = core::Representation::VY2;
  return o;
}

toeplitz::BlockToeplitz indefinite_matrix(const Sizes& z, std::size_t i) {
  return toeplitz::singular_minor_family(z.ind_n, kIndefiniteCorpusSeed + i);
}

struct System {
  toeplitz::BlockToeplitz t;
  std::vector<double> b;
};

/// One toeplitz_solve at a time over a pool of systems, each answer checked
/// for its route and backward error.
class PoolSolve final : public Serial {
 public:
  PoolSolve(std::function<System(std::size_t)> make, std::vector<std::size_t> order,
            core::SolveOptions opt, core::SolvePath path, std::string route)
      : make_(std::move(make)), order_(std::move(order)), opt_(std::move(opt)), path_(path),
        route_(std::move(route)) {}

  void setup() override {
    sys_.clear();
    op_.clear();
    tnorm_.clear();
    for (std::size_t i = 0; i < order_.size(); ++i) {
      sys_.push_back(make_(i));
      op_.emplace_back(sys_.back().t, toeplitz::MatVecMode::Fft);
      tnorm_.push_back(sys_.back().t.norm1_upper());
      rep_ = core::toeplitz_solve(sys_.back().t, sys_.back().b, opt_);  // warm-up
      if (!passes(i)) throw std::runtime_error("warm-up solve failed its check");
    }
  }

  void run(std::size_t op, SpanLog& spans) override {
    const System& s = sys_[order_[op % order_.size()]];
    SpanLog::Scope span(spans, "core.toeplitz_solve", op);
    rep_ = core::toeplitz_solve(s.t, s.b, opt_);
  }

  bool check(std::size_t op) override { return passes(order_[op % order_.size()]); }
  void corrupt() override { rep_.x[0] = 2.0 * rep_.x[0] + 1.0; }
  [[nodiscard]] std::size_t pool() const override { return order_.size(); }

 private:
  [[nodiscard]] bool passes(std::size_t i) const {
    return rep_.path == path_ && rep_.solver_path == route_ && rep_.converged &&
           backward_error(op_[i], tnorm_[i], sys_[i].b, rep_.x) <= kBackwardTol;
  }

  std::function<System(std::size_t)> make_;
  std::vector<std::size_t> order_;
  core::SolveOptions opt_;
  core::SolvePath path_;
  std::string route_;
  std::vector<System> sys_;
  std::vector<toeplitz::MatVec> op_;
  std::vector<double> tnorm_;
  core::SolveReport rep_;
};

/// indefinite_refine: the section 8 route (perturbed indefinite factor plus
/// refinement) with default SolveOptions, over the fixed corpus.
std::unique_ptr<Serial> indefinite_refine(const Sizes& z, std::uint64_t seed) {
  return std::make_unique<PoolSolve>(
      [z](std::size_t i) {
        return System{indefinite_matrix(z, i),
                      random_vector(z.ind_n, mix(kIndefiniteCorpusSeed, 4, i))};
      },
      shuffled(static_cast<std::size_t>(z.ind_pool), mix(seed, 3)), core::SolveOptions{},
      core::SolvePath::IndefinitePerturbed, "schur+refine");
}

simnet::DistOptions t3d_options(const Sizes& z) {
  simnet::DistOptions o;
  o.layout = simnet::Layout::V2;
  o.np = z.t3d_np;
  o.group = z.t3d_group;
  o.rep = core::Representation::VY2;
  o.machine = simnet::MachineParams::t3d();
  return o;
}

toeplitz::BlockToeplitz t3d_matrix(const Sizes& z, std::uint64_t seed, std::size_t i) {
  return toeplitz::random_spd_block(z.t3d_m, z.t3d_p, 2, mix(seed, 5, i));
}

// ---------------------------------------------------------------------------
// service_zipf: the cached service under a closed loop.

/// The loop's latencies plus what the per-layer metrics read.
struct ServiceLoop {
  LoopStats st;
  std::uint64_t hit_requests = 0;
  double padded_cols = 0.0;  // sum over requests of panel-padded batch width / batch
  service::ServiceStats before, after;
};

class ZipfService {
 public:
  ZipfService(const Sizes& z, std::uint64_t seed) : z_(z), seed_(seed) {
    double h = 0.0;
    for (int k = 0; k < z_.svc_keys; ++k) {
      h += 1.0 / (k + 1.0);  // Zipf, s = 1
      cdf_.push_back(h);
    }
    for (double& c : cdf_) c /= h;
  }

  void setup() {
    svc_.reset();
    t_.clear();
    rhs_.clear();
    ref_.clear();
    const index_t n = z_.svc_m * z_.svc_p;
    service::ServiceOptions o;
    o.cache_bytes = static_cast<std::size_t>(n * n) * sizeof(double) *
                    static_cast<std::size_t>(z_.svc_fit) +
                    static_cast<std::size_t>(n * n) * sizeof(double) / 2;
    o.slow_ms = 0.0;  // no stderr logging
    o.trace_requests = 0;
    svc_ = std::make_unique<service::Service>(o);
    for (int k = 0; k < z_.svc_keys; ++k) {
      t_.push_back(toeplitz::random_spd_block(z_.svc_m, z_.svc_p, 4, mix(seed_, 6, k)));
      rhs_.emplace_back();
      for (int j = 0; j < z_.svc_rhs; ++j) {
        const auto kj = static_cast<std::uint64_t>(k * 64 + j);
        rhs_.back().push_back(random_vector(n, mix(seed_, 7, kj)));
      }
    }
    // Prefill, coldest key first, so the hottest keys end up resident.  The
    // references come from the synchronous path, whose answers the batched
    // path must reproduce bit for bit (docs/SERVICE.md).
    ref_.resize(t_.size());
    for (int k = z_.svc_keys - 1; k >= 0; --k) {
      const toeplitz::MatVec op(t_[k], toeplitz::MatVecMode::Fft);
      for (const auto& b : rhs_[k]) {
        ref_[k].push_back(svc_->solve(t_[k], b).x);
        if (backward_error(op, t_[k].norm1_upper(), b, ref_[k].back()) > kBackwardTol) {
          throw std::runtime_error("service_zipf: reference solve misses the tolerance");
        }
      }
    }
  }

  /// Keeps `inflight` requests outstanding until `seconds` of submissions
  /// (or `max_requests`) have passed, then drains.
  ServiceLoop loop(const Config& cfg, double seconds, std::uint64_t max_requests,
                   SpanLog& spans) {
    struct Pending {
      std::future<service::SolveResult> fut;
      int key, rhs;
      std::uint64_t t_submit, req;
    };
    ServiceLoop out;
    util::Rng rng(mix(seed_, 8));
    std::deque<Pending> q;
    std::uint64_t next = 0;
    out.before = svc_->stats();
    const std::uint64_t t_start = now_ns();
    const auto deadline = t_start + static_cast<std::uint64_t>(seconds * 1e9);
    auto submit = [&] {
      const double u = rng.uniform();
      const int key =
          static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      const int rhs = static_cast<int>(rng.below(static_cast<std::uint64_t>(z_.svc_rhs)));
      const std::uint64_t ts = now_ns();
      q.push_back(Pending{svc_->submit(t_[key], rhs_[key][rhs]), key, rhs, ts, next++});
    };
    for (int i = 0; i < z_.svc_inflight; ++i) submit();
    std::uint64_t t_end = t_start;
    while (!q.empty()) {
      Pending p = std::move(q.front());
      q.pop_front();
      ++out.st.attempted;
      std::optional<service::SolveResult> res;
      if (p.fut.wait_for(std::chrono::seconds(30)) == std::future_status::ready) {
        try {
          res = p.fut.get();
        } catch (const std::exception&) {
        }
      }
      if (now_ns() < deadline && next < max_requests) submit();
      if (!res) continue;
      t_end = std::max(t_end, res->done_ns);
      const double lat = static_cast<double>(res->done_ns - p.t_submit) * 1e-9;
      const bool traced = cfg.trace && p.req % 2 == 0;
      out.st.lat_s.push_back(lat);
      (traced ? out.st.traced_s : out.st.untraced_s).push_back(lat);
      out.hit_requests += res->cache_hit ? 1 : 0;
      const double b = static_cast<double>(res->batch_cols);
      const double panel = static_cast<double>(svc_->options().rhs_panel);
      out.padded_cols += std::ceil(b / panel) * panel / b;
      spans.set_recording(traced);
      if (traced) {
        const int root = spans.add("service.request", p.req, -1, p.t_submit, res->done_ns);
        std::uint64_t t = p.t_submit;
        for (auto [name, ns] : {std::pair{"service.queue", res->queue_ns},
                                std::pair{"service.factor", res->factor_ns},
                                std::pair{"service.solve", res->solve_ns}}) {
          spans.add(name, p.req, root, t, t + ns);
          t += ns;
        }
      }
      if (cfg.corrupt_one && p.req == 0) res->x[0] += 1.0;
      SpanLog::Scope s(spans, "check", p.req);
      if (res->x == ref_[p.key][p.rhs]) ++out.st.passed;
    }
    spans.set_recording(false);
    out.st.window_s = static_cast<double>(t_end - t_start) * 1e-9;
    out.after = svc_->stats();
    return out;
  }

 private:
  Sizes z_;
  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::unique_ptr<service::Service> svc_;
  std::vector<toeplitz::BlockToeplitz> t_;
  std::vector<std::vector<std::vector<double>>> rhs_;
  std::vector<std::vector<std::vector<double>>> ref_;
};

// ---------------------------------------------------------------------------
// The traced layer walk: times calls into each module's public functions at
// the workloads' shapes.  It is the same in every traced run, so every
// per-layer metric is reported by every workload's traced run.

class Walk {
 public:
  Walk(const Sizes& z, std::uint64_t seed, SpanLog& spans) : z_(z), seed_(seed), spans_(spans) {}

  std::vector<Metric> run(Outcome& out) {
    spans_.set_recording(true);
    la_and_step();
    factor_and_solve();
    indefinite();
    simnet(out);
    service(out);
    spans_.set_recording(false);
    return std::move(m_);
  }

 private:
  /// Times `body(rep)` walk_reps times under span `name`, after
  /// `prepare(rep)` has run outside the span; returns the median in ms.
  template <class F, class P>
  double median_ms(const char* name, F&& body, P&& prepare) {
    const std::size_t from = spans_.spans().size();
    for (int r = 0; r < z_.walk_reps; ++r) {
      prepare(r);
      SpanLog::Scope s(spans_, name, req_++);
      body(r);
    }
    return median(spans_.durations(name, from)) * 1e3;
  }
  template <class F>
  double median_ms(const char* name, F&& body) {
    return median_ms(name, [&](int) { body(); }, [](int) {});
  }

  void put(const char* name, const char* unit, double value, std::size_t samples = 0) {
    m_.push_back(Metric{name, unit, value, samples == 0 ? static_cast<std::size_t>(z_.walk_reps)
                                                        : samples});
  }

  void la_and_step() {
    const toeplitz::BlockToeplitz t = cold_matrix(z_, seed_, 0);
    const index_t m = z_.cold_m, n = t.order();
    // Reflector application at schur_cold's mean active width: W = Y^T G,
    // C = V W, with G the 2m x L generator slice (eqs. 29-32).
    const index_t width = (z_.cold_p / 2) * m;
    auto random_mat = [&](index_t r, index_t c, std::uint64_t s) {
      la::Mat a(r, c);
      util::Rng rng(mix(seed_, 9, s));
      for (index_t j = 0; j < c; ++j)
        for (index_t i = 0; i < r; ++i) a(i, j) = rng.normal();
      return a;
    };
    const la::Mat y = random_mat(2 * m, m, 1), v = random_mat(2 * m, m, 2),
                  g = random_mat(2 * m, width, 3);
    la::Mat w(m, width), c(2 * m, width);
    const double gemm_ms = median_ms("la.gemm", [&] {
      la::gemm(la::Op::Trans, la::Op::None, 1.0, y.view(), g.view(), 0.0, w.view());
      la::gemm(la::Op::None, la::Op::None, 1.0, v.view(), w.view(), 0.0, c.view());
    });
    put("la.gemm.gflops", "GF/s",
        8.0 * static_cast<double>(m * m * width) / (gemm_ms * 1e-3) * 1e-9);

    const core::SchurFactor f = core::block_schur_factor(t, cold_options().spd);
    const std::vector<double> x0 = random_vector(n, mix(seed_, 10));
    std::vector<double> x;
    const double trsv_ms = median_ms(
        "la.trsv",
        [&](int) {
          la::trsv(la::Uplo::Upper, la::Op::Trans, la::Diag::NonUnit, f.r.view(), x.data());
          la::trsv(la::Uplo::Upper, la::Op::None, la::Diag::NonUnit, f.r.view(), x.data());
        },
        [&](int) { x = x0; });
    // Two sweeps over the upper triangle (8 bytes per entry) plus x.
    const double tri_bytes = 8.0 * static_cast<double>(n * (n + 1) / 2 + 2 * n);
    put("la.trsv.gbs", "GB/s", 2.0 * tri_bytes / (trsv_ms * 1e-3) * 1e-9);

    const index_t svc_n = z_.svc_m * z_.svc_p;
    const core::SchurFactor fs =
        core::block_schur_factor(toeplitz::random_spd_block(z_.svc_m, z_.svc_p, 4, mix(seed_, 6)));
    const index_t panel = service::ServiceOptions{}.rhs_panel;
    const la::Mat b0 = random_mat(svc_n, panel, 4);
    la::Mat bx(svc_n, panel);
    const double trsm_ms = median_ms(
        "la.trsm",
        [&](int) {
          la::trsm(la::Side::Left, la::Uplo::Upper, la::Op::Trans, la::Diag::NonUnit, 1.0,
                   fs.r.view(), bx.view());
        },
        [&](int) { la::copy(b0.view(), bx.view()); });
    put("la.trsm.gflops", "GF/s",
        static_cast<double>(svc_n * svc_n * panel) / (trsm_ms * 1e-3) * 1e-9);

    // One Schur step at schur_cold's shape: the pivot pair of step 1.
    const core::Generator gen = core::make_generator_spd(t);
    la::Mat p(m, m), q(m, m);
    std::optional<core::BlockReflector> br;
    const double build_ms = median_ms(
        "core.step.build",
        [&](int) {
          br.emplace(core::Representation::VY2, m, gen.sig);
          if (br->build(p.view(), q.view(), core::SchurOptions{}.breakdown_tol)) {
            throw std::runtime_error("layer walk: reflector build broke down");
          }
        },
        [&](int) {
          la::copy(gen.a.block(0, 0, m, m), p.view());
          la::copy(gen.b.block(0, m, m, m), q.view());
        });
    put("core.step.build_us", "us", build_ms * 1e3);
    la::Mat a(m, width), b(m, width);
    const double apply_ms = median_ms(
        "core.step.apply", [&](int) { br->apply(a.view(), b.view()); },
        [&](int) {
          la::copy(gen.a.block(0, m, m, width), a.view());
          la::copy(gen.b.block(0, m, m, width), b.view());
        });
    put("core.step.apply_ns_per_col", "ns", apply_ms * 1e6 / static_cast<double>(width));
  }

  void factor_and_solve() {
    const toeplitz::BlockToeplitz t = cold_matrix(z_, seed_, 0);
    const std::vector<double> b = random_vector(t.order(), mix(seed_, 2));
    const core::SolveOptions opt = cold_options();
    core::SchurFactor f = core::block_schur_factor(t, opt.spd);
    std::vector<double> x;
    // Round-robin, so that host drift touches the four calls alike: the
    // ratios below compare them.
    const std::vector<std::pair<const char*, std::function<void()>>> calls = {
        {"core.block_schur_factor", [&] { f = core::block_schur_factor(t, opt.spd); }},
        {"core.block_schur_stream",
         [&] { core::block_schur_stream(t, opt.spd, [](index_t, la::CView) {}); }},
        {"core.solve_spd", [&] { x = core::solve_spd(f, b); }},
        {"core.toeplitz_solve", [&] { x = core::toeplitz_solve(t, b, opt).x; }},
    };
    const std::size_t from = spans_.spans().size();
    for (int r = 0; r < z_.walk_reps; ++r) {
      for (const auto& [name, call] : calls) {
        SpanLog::Scope s(spans_, name, req_++);
        call();
      }
    }
    auto ms = [&](const char* name) { return median(spans_.durations(name, from)) * 1e3; };
    const double factor_ms = ms("core.block_schur_factor");
    const double stream_ms = ms("core.block_schur_stream");
    const double solve_ms = ms("core.solve_spd");
    put("core.factor.ms", "ms", factor_ms);
    put("core.factor.gflops", "GF/s", static_cast<double>(f.flops) / (factor_ms * 1e-3) * 1e-9);
    put("core.factor.stream_ms", "ms", stream_ms);
    put("core.factor.store_frac", "fraction", 1.0 - stream_ms / factor_ms);
    put("core.factor.mb", "MiB",
        static_cast<double>(f.r.rows() * f.r.cols()) * sizeof(double) / 1048576.0, 1);
    const double n = static_cast<double>(t.order());
    put("core.solve.ms", "ms", solve_ms);
    put("core.solve.gbs", "GB/s", 8.0 * (n * (n + 1.0) + 2.0 * n) / (solve_ms * 1e-3) * 1e-9);
    put("core.unattributed_frac", "fraction",
        1.0 - (factor_ms + solve_ms) / ms("core.toeplitz_solve"));
  }

  void indefinite() {
    const toeplitz::BlockToeplitz t = indefinite_matrix(z_, 0);
    const std::vector<double> b = random_vector(t.order(), mix(kIndefiniteCorpusSeed, 4));
    put("core.spd_attempt.ms", "ms", median_ms("core.spd_attempt", [&] {
          try {
            (void)core::block_schur_factor(t);
          } catch (const core::NotPositiveDefinite&) {
          }
        }));
    core::LdlFactor ldl;
    put("core.indefinite.ms", "ms", median_ms("core.block_schur_indefinite",
                                              [&] { ldl = core::block_schur_indefinite(t); }));
    put("core.indefinite.perturbations", "count", static_cast<double>(ldl.perturbations.size()));
    put("core.indefinite.interchanges", "count", static_cast<double>(ldl.interchanges));
    const toeplitz::MatVec direct(t, toeplitz::MatVecMode::Direct);
    const toeplitz::MatVec fft(t, toeplitz::MatVecMode::Fft);
    core::RefineResult rr;
    const core::FactorSolve fsolve = [&](const std::vector<double>& r, std::vector<double>& dx) {
      dx = core::solve_ldl(ldl, r);
    };
    put("core.refine.ms", "ms",
        median_ms("core.solve_refined", [&] { rr = core::solve_refined(direct, fsolve, b); }));
    put("core.refine.iters", "count", static_cast<double>(rr.iterations));
    std::vector<double> y;
    put("toeplitz.matvec_direct.ms", "ms",
        median_ms("toeplitz.matvec_direct", [&] { direct.apply(b, y); }));
    put("toeplitz.matvec_fft.ms", "ms", median_ms("toeplitz.matvec_fft", [&] { fft.apply(b, y); }));
  }

  /// Also checks every distributed factor bit for bit against the
  /// sequential one.
  void simnet(Outcome& out) {
    const toeplitz::BlockToeplitz t = t3d_matrix(z_, seed_, 0);
    const simnet::DistOptions opt = t3d_options(z_);
    const la::Mat seq = core::block_schur_factor(t).r;
    const std::size_t factor_bytes =
        static_cast<std::size_t>(seq.rows() * seq.cols()) * sizeof(double);
    const std::size_t from = spans_.spans().size();
    simnet::DistResult r;
    for (int rep = 0; rep < z_.walk_reps; ++rep) {
      {
        SpanLog::Scope s(spans_, "simnet.dist_schur_factor", req_++);
        r = simnet::dist_schur_factor(t, opt, true);
      }
      ++out.attempted;
      if (!r.r || std::memcmp(r.r->data(), seq.data(), factor_bytes) != 0) ++out.failed;
    }
    const double host_ms = median(spans_.durations("simnet.dist_schur_factor", from)) * 1e3;
    double msgs = 0.0, bytes = 0.0;
    for (const simnet::PeCommStats& c : r.comm) {
      msgs += c.messages;
      bytes += c.bytes_sent;
    }
    put("simnet.sim_s", "s", r.sim_seconds, 1);
    put("simnet.compute_s", "s", r.breakdown.compute, 1);
    put("simnet.broadcast_s", "s", r.breakdown.broadcast, 1);
    put("simnet.shift_s", "s", r.breakdown.shift, 1);
    put("simnet.barrier_s", "s", r.breakdown.barrier, 1);
    put("simnet.msgs", "count", msgs, 1);
    put("simnet.mbytes", "MB", bytes * 1e-6, 1);
    put("simnet.host_ms_per_step", "ms",
        host_ms / static_cast<double>(std::max<index_t>(r.steps, 1)));
  }

  void service(Outcome& out) {
    ZipfService svc(z_, seed_);
    svc.setup();
    Config burst;
    burst.trace = true;
    const std::size_t from = spans_.spans().size();
    ServiceLoop l = svc.loop(burst, 1e9, static_cast<std::uint64_t>(z_.walk_requests), spans_);
    auto p50_ms = [&](const char* name) { return median(spans_.durations(name, from)) * 1e3; };
    out.attempted += l.st.attempted;
    out.failed += l.st.attempted - l.st.passed;
    const std::size_t k = l.st.lat_s.size();
    put("service.queue_ms_p50", "ms", p50_ms("service.queue"), k / 2);
    put("service.factor_ms_p50", "ms", p50_ms("service.factor"), k / 2);
    put("service.solve_ms_p50", "ms", p50_ms("service.solve"), k / 2);
    const service::CacheStats& c0 = l.before.cache;
    const service::CacheStats& c1 = l.after.cache;
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
    const double done = static_cast<double>(l.after.completed - l.before.completed);
    put("service.hit_rate", "fraction", lookups > 0 ? hits / lookups : 0.0,
        static_cast<std::size_t>(lookups));
    put("service.req_hit_frac", "fraction",
        k > 0 ? static_cast<double>(l.hit_requests) / static_cast<double>(k) : 0.0, k);
    put("service.evictions", "count", static_cast<double>(c1.evictions - c0.evictions), 1);
    put("service.mean_batch", "req",
        done / std::max(1.0, static_cast<double>(l.after.batches - l.before.batches)), k);
    put("service.panel_fill", "fraction",
        l.padded_cols > 0 ? static_cast<double>(k) / l.padded_cols : 0.0, k);
    put("service.cache_mb", "MiB", static_cast<double>(c1.resident_bytes) / 1048576.0, 1);
  }

  Sizes z_;
  std::uint64_t seed_;
  SpanLog& spans_;
  std::uint64_t req_ = 1u << 30;
  std::vector<Metric> m_;
};

// ---------------------------------------------------------------------------

template <class Setup>
std::vector<double> timed_setups(int reps, Setup&& setup) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    setup();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return s;
}

void end_to_end(Outcome& out, const std::vector<double>& setup_s, const LoopStats& st) {
  const std::size_t k = st.lat_s.size();
  auto q_ms = [&](double q) { return quantile(st.lat_s, q) * 1e3; };
  out.metrics = {
      {"setup_s", "s", median(setup_s), setup_s.size()},
      {"latency_p50_ms", "ms", q_ms(0.50), k},
      {"latency_p90_ms", "ms", q_ms(0.90), k},
      {"latency_p99_ms", "ms", q_ms(0.99), k},
      {"throughput_per_s", "1/s", st.window_s > 0 ? static_cast<double>(k) / st.window_s : 0.0, k},
      {"ok_frac", "fraction",
       st.attempted > 0 ? static_cast<double>(st.passed) / static_cast<double>(st.attempted) : 0.0,
       st.attempted},
      {"peak_rss_mb", "MiB", peak_rss_mib(), 1},
  };
}

std::string sizes_note(const std::string& w, const Sizes& z) {
  std::ostringstream os;
  if (w == "service_zipf") {
    os << "m=" << z.svc_m << " p=" << z.svc_p << " order=" << z.svc_m * z.svc_p
       << " keys=" << z.svc_keys << " cache_fits=" << z.svc_fit << " rhs_per_key=" << z.svc_rhs
       << " inflight=" << z.svc_inflight << " zipf_s=1";
  } else if (w == "indefinite_refine") {
    os << "m=1 order=" << z.ind_n << " pool=" << z.ind_pool << " residuals=Direct";
  }
  return os.str();
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Outcome run_workload(const Config& cfg, SpanLog& spans) {
  const Sizes& z = cfg.tiny ? kTiny : kFull;
  Outcome out;
  out.notes.emplace_back("sizes", sizes_note(cfg.workload, z));
  std::vector<double> setup_s;
  LoopStats st;
  if (cfg.workload == "service_zipf") {
    ZipfService w(z, cfg.seed);
    setup_s = timed_setups(z.setup_reps, [&] { w.setup(); });
    st = w.loop(cfg, cfg.seconds, std::numeric_limits<std::uint64_t>::max(), spans).st;
  } else {
    std::unique_ptr<Serial> w;
    if (cfg.workload == "indefinite_refine") w = indefinite_refine(z, cfg.seed);
    if (!w) throw std::invalid_argument("unknown workload: " + cfg.workload);
    setup_s = timed_setups(z.setup_reps, [&] { w->setup(); });
    st = serial_loop(*w, cfg, spans);
  }
  out.attempted = st.attempted;
  out.failed = st.attempted - st.passed;
  if (!cfg.trace) {
    end_to_end(out, setup_s, st);
    return out;
  }
  out.metrics = Walk(z, cfg.seed, spans).run(out);
  out.metrics.push_back(Metric{"util.trace.overhead_frac", "fraction",
                               median(st.traced_s) / median(st.untraced_s) - 1.0,
                               st.lat_s.size()});
  return out;
}

Outcome run_parallel_probe(const Config& cfg) {
  const Sizes& z = cfg.tiny ? kTiny : kFull;
  const toeplitz::BlockToeplitz t = cold_matrix(z, cfg.seed, 0);
  core::SchurOptions serial = cold_options().spd, parallel = serial;
  parallel.parallel = true;
  std::vector<double> ts, tp;
  Outcome out;
  for (int r = 0; r < z.walk_reps; ++r) {
    std::uint64_t t0 = now_ns();
    const core::SchurFactor fs = core::block_schur_factor(t, serial);
    ts.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    t0 = now_ns();
    const core::SchurFactor fp = core::block_schur_factor(t, parallel);
    tp.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    out.attempted += 1;
    if (!(la::max_diff(fs.r.view(), fp.r.view()) <= 1e-12 * la::frobenius(fs.r.view()))) {
      out.failed += 1;
    }
  }
  out.metrics.push_back(Metric{"core.factor.parallel_speedup", "x", median(ts) / median(tp),
                               ts.size()});
  return out;
}

}  // namespace perfbench

// Umbrella header for the block Schur Toeplitz library.
//
// Public API tour:
//   toeplitz::BlockToeplitz      -- problem description (first block row)
//   core::block_schur_factor     -- SPD factorization T = R^T R
//   core::block_schur_indefinite -- indefinite / singular-minor extension,
//                                   T + dT = R^T D R
//   core::solve_spd / solve_ldl  -- triangular solves on the factors
//   core::solve_refined          -- iterative refinement driver
//   simnet::dist_schur_factor    -- distributed-memory simulation: T3D cost
//                                   model + SPMD program (V1/V2/V3)
//   baseline::*                  -- Levinson / classical Schur / dense
//   service::Service             -- batched factor-once/solve-many service
//                                   (factor cache, async queue, docs/SERVICE.md)
//   util::Tracer / TraceSpan     -- structured phase tracing (docs/OBSERVABILITY.md)
//   util::FlightRecorder         -- per-thread event timeline (chrome trace)
//   util::Metrics                -- histograms, counters, and live gauges
//   util::TelemetryExporter      -- periodic Prometheus/JSONL telemetry
//   util::Watchdog               -- numerical-health warnings
//   util::Crashbox               -- async-signal-safe crash reports (post-mortem)
//   util::StallGuard             -- heartbeat-based hang detection
//   util::Fault                  -- BST_FAULT injection seam (testing only)
//   util::read_crash_report      -- crash-report decoder (tools/bst_postmortem)
//   util::PerfReport             -- JSON perf-report writer (stable schema)
//   util::Calibration            -- machine ceilings for roofline/attainment
#pragma once

#include "baseline/classic_schur.h"
#include "baseline/dense_solver.h"
#include "baseline/block_levinson.h"
#include "baseline/levinson.h"
#include "core/block_reflector.h"
#include "core/flop_model.h"
#include "core/generator.h"
#include "core/hyperbolic.h"
#include "core/indefinite.h"
#include "core/refine.h"
#include "core/schur.h"
#include "core/solve.h"
#include "core/solver.h"
#include "la/blas.h"
#include "la/cholesky.h"
#include "la/condest.h"
#include "la/ldlt.h"
#include "la/matrix.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "service/cache.h"
#include "service/service.h"
#include "simnet/dist_schur.h"
#include "simnet/machine.h"
#include "simnet/runtime.h"
#include "simnet/threaded_schur.h"
#include "toeplitz/block_toeplitz.h"
#include "toeplitz/fft.h"
#include "toeplitz/generators.h"
#include "toeplitz/io.h"
#include "toeplitz/matvec.h"
#include "util/attainment.h"
#include "util/calibrate.h"
#include "util/cli.h"
#include "util/crashbox.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/flops.h"
#include "util/fpenv.h"
#include "util/ledger.h"
#include "util/metrics.h"
#include "util/par_analysis.h"
#include "util/postmortem.h"
#include "util/prof.h"
#include "util/report.h"
#include "util/rng.h"
#include "util/stallguard.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/watchdog.h"

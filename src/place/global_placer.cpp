#include "place/global_placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <iomanip>
#include <limits>
#include <sstream>

#include "audit/invariant_audit.hpp"
#include "db/netlist_io.hpp"
#include "fft/fft.hpp"
#include "legal/abacus.hpp"
#include "legal/pin_access_refine.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/fault_injection.hpp"
#include "recover/kill_points.hpp"
#include "recover/stage_guard.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {

namespace {

/// Design + curated-config fingerprint stored in every durable snapshot
/// (DESIGN.md §16): a checkpoint must never resume a different design,
/// seed, or schedule — any of those silently breaks the bitwise-identity
/// contract of a resumed run.
uint64_t durable_fingerprint(const Design& d, const PlacerConfig& cfg) {
    std::ostringstream ss;
    write_design(d, ss);
    ss << std::setprecision(17) << "|mode=" << static_cast<int>(cfg.mode)
       << "|mci=" << cfg.enable_mci << "|dc=" << cfg.enable_dc
       << "|dpa=" << cfg.enable_dpa << "|bins=" << cfg.grid_bins
       << "|td=" << cfg.density.target_density
       << "|filler=" << cfg.filler_ratio << "|g=" << cfg.gamma_frac << ":"
       << cfg.gamma_min_frac << ":" << cfg.gamma_decay
       << "|l1=" << cfg.lambda1_growth << "|wl=" << cfg.max_wl_iters << ":"
       << cfg.stop_overflow << "|route=" << cfg.max_route_iters << ":"
       << cfg.inner_iters << ":" << cfg.stop_patience
       << "|infl=" << cfg.inflation_budget_frac << ":"
       << cfg.keep_best_margin << "|w=" << cfg.dc_weight << ":"
       << cfg.dpa_weight << ":" << cfg.route_lambda1_boost << ":"
       << cfg.static_pg_weight << "|bbox=" << cfg.use_bbox_dc_model
       << "|rudy=" << cfg.use_rudy_congestion
       << "|padp=" << cfg.enable_pin_access_dp
       << "|nm=" << cfg.netmove.multi_pin_congestion_threshold
       << "|seed=" << cfg.seed;
    const std::string text = ss.str();
    return recover::fnv1a64(text.data(), text.size());
}

}  // namespace

int GlobalPlacer::add_fillers(Design& d, const PlacerConfig& cfg,
                              uint64_t seed) {
    const int first = d.num_cells();
    const double free_area = d.region.area() - d.total_fixed_area();
    const double spare =
        cfg.density.target_density * free_area - d.total_movable_area();
    if (spare <= 0.0) return first;

    // Filler size: mean movable cell dimensions.
    double mean_w = 0.0, mean_h = d.row_height;
    int n_mov = 0;
    for (const Cell& c : d.cells) {
        if (!c.movable()) continue;
        mean_w += c.width;
        ++n_mov;
    }
    if (n_mov == 0) return first;
    mean_w /= n_mov;
    const double fa = mean_w * mean_h;
    const int count =
        static_cast<int>(std::floor(cfg.filler_ratio * spare / fa));

    Rng rng(seed ^ 0xF117E55ull);
    for (int i = 0; i < count; ++i) {
        const Vec2 p{rng.uniform(d.region.lx + mean_w / 2,
                                 d.region.hx - mean_w / 2),
                     rng.uniform(d.region.ly + mean_h / 2,
                                 d.region.hy - mean_h / 2)};
        d.add_cell("__filler_" + std::to_string(i), mean_w, mean_h,
                   CellKind::Movable, p);
    }
    return first;
}

PlaceResult GlobalPlacer::place(const Design& input) const {
    const auto t0 = std::chrono::steady_clock::now();
    RDP_LOG_INFO() << "simd backend: " << simd::backend_name()
                   << (simd::fma_enabled() ? " (fma)" : "");
    PlaceResult res;

    Design d = input;
    if (d.rows.empty()) d.build_rows();

    // Durable checkpoint/resume layer (DESIGN.md §16). The fingerprint is
    // computed on the pre-placement design (movable input positions are
    // overwritten below either way), so the same input file and config
    // always fingerprint identically.
    const recover::DurableOptions dopts =
        recover::resolve_durable_options(cfg_.durable);
    uint64_t fingerprint = 0;
    if (!dopts.dir.empty() || !dopts.resume.empty())
        fingerprint = durable_fingerprint(d, cfg_);
    recover::DurableCheckpointer durable(dopts, fingerprint);
    const std::optional<recover::PipelineSnapshot> resume =
        durable.load_resume();
    const bool resume_stage2 =
        resume && resume->stage == recover::kStageRoutability;

    // Initial positions: movable cells near the centroid of fixed pins
    // (or the region center), with a small deterministic spread.
    {
        Vec2 centroid = d.region.center();
        Rng rng(cfg_.seed);
        const double sx = d.region.width() * 0.08;
        const double sy = d.region.height() * 0.08;
        for (Cell& c : d.cells) {
            if (!c.movable()) continue;
            c.pos = {centroid.x + rng.normal(0.0, sx),
                     centroid.y + rng.normal(0.0, sy)};
        }
        d.clamp_movables_to_region();
    }

    const int first_filler = add_fillers(d, cfg_, cfg_.seed);
    std::vector<int> movable = d.movable_cells();

    // Shared grid for density, G-cells, and congestion (paper II-B).
    const int bins = next_pow2(cfg_.grid_bins);
    const BinGrid grid(d.region, bins, bins);
    PlacementObjective obj(grid, cfg_.density, cfg_.netmove,
                           cfg_.gamma_frac *
                               std::max(grid.bin_w(), grid.bin_h()));

    // ---- Stage 1: wirelength-driven GP ------------------------------------
    // Skipped entirely when resuming from a routability-stage snapshot:
    // everything it would compute is superseded by the snapshot state.
    if (!resume_stage2) {
        const AuditStageScope audit_scope("wirelength-gp");
        recover::StageGuard sguard("wirelength-gp", cfg_.recover,
                                   &res.recovery);
        std::vector<Vec2> pos(movable.size());
        for (size_t i = 0; i < movable.size(); ++i)
            pos[i] = d.cells[static_cast<size_t>(movable[i])].pos;
        // Recovery-adjustable knobs; identical to the configured values on
        // a clean run (the recovery ladder is the only writer).
        NesterovConfig nes_cfg;
        double lambda1_growth = cfg_.lambda1_growth;
        NesterovSolver solver(pos, nes_cfg);
        std::vector<Vec2> grad;

        // WA gamma decays from its construction value down to gamma_min.
        const double gamma_min =
            cfg_.gamma_min_frac * std::max(grid.bin_w(), grid.bin_h());

        // lambda_1 initialization: ||grad W||_1 / ||grad D||_1.
        obj.set_lambda1(0.0);
        {
            const ObjectiveTerms t0terms =
                obj.evaluate(d, movable, solver.reference(), grad);
            const double l1 =
                t0terms.density_grad_l1 > 0.0
                    ? t0terms.wl_grad_l1 / t0terms.density_grad_l1
                    : 1.0;
            obj.set_lambda1(l1);
        }

        const double die_bound = die_wirelength_bound(d);
        const auto project = region_projection(d, movable);
        recover::PipelineSnapshot ckpt;  // rollback point (recovery active)
        size_t hist_at_ckpt = 0;
        double last_wl = 0.0;
        int it = 0;

        // The stage's pipeline state (DESIGN.md §11, §16): one capture from
        // the live solver and schedule serves the rollback checkpoint and
        // the journal; one apply restores it — positions and schedule on a
        // rollback (the Nesterov momentum restarts), everything on resume.
        auto capture = [&](recover::PipelineSnapshot& s) {
            s.stage = recover::kStageWirelength;
            s.iter = it;
            s.pos = solver.solution();
            s.opt = solver.snapshot();
            s.lambda1 = obj.lambda1();
            s.gamma = obj.gamma();
            s.lambda1_growth = lambda1_growth;
            s.initial_step = nes_cfg.initial_step;
            s.last_wl = last_wl;
        };
        auto apply = [&](const recover::PipelineSnapshot& s,
                         bool resume_all) {
            it = s.iter;
            res.wl_iters = s.iter;
            if (resume_all) {
                nes_cfg.initial_step = s.initial_step;
                lambda1_growth = s.lambda1_growth;
                last_wl = s.last_wl;
            }
            solver = NesterovSolver(s.pos, nes_cfg);
            if (resume_all) solver.restore(s.opt);
            obj.set_lambda1(s.lambda1);
            obj.set_gamma(s.gamma);
        };

        if (resume && resume->stage == recover::kStageWirelength) {
            // Rebuild the optimizer exactly as serialized, under the
            // snapshot's (possibly recovery-adjusted) step and schedule
            // knobs. The iterations from here on are bitwise identical to
            // the uninterrupted run.
            apply(*resume, true);
            RDP_LOG_INFO() << "resumed wirelength-gp at iteration " << it;
        }
        // Recovery ladder for the wirelength stage: roll back to the last
        // checkpoint with a halved step and a tightened lambda schedule.
        // Returns false once retries are exhausted (stage degrades to the
        // checkpoint state).
        auto apply_recovery = [&](recover::FaultKind kind,
                                  const char* what) -> bool {
            const bool retry = sguard.allow_retry(kind, it, what);
            if (ckpt.valid()) {
                if (retry) {
                    nes_cfg.initial_step *= cfg_.recover.step_shrink;
                    lambda1_growth = 1.0 + (lambda1_growth - 1.0) *
                                               cfg_.recover.lambda_tighten;
                }
                apply(ckpt, false);
                res.overflow_history.resize(hist_at_ckpt);
            }
            if (!retry) {
                sguard.degrade(kind, it,
                               "retries exhausted; finishing on the last"
                               " checkpoint");
                return false;
            }
            ++res.recovery.rollbacks;
            std::ostringstream oss;
            oss << "restored checkpoint of iteration " << ckpt.iter
                << "; step x" << cfg_.recover.step_shrink
                << ", lambda1 growth -> " << lambda1_growth;
            sguard.record(kind, it, "rollback", oss.str());
            return true;
        };

        while (it < cfg_.max_wl_iters) {
            if (sguard.over_budget(it)) break;
            if (sguard.active() &&
                (!ckpt.valid() ||
                 it - ckpt.iter >= cfg_.recover.checkpoint_every)) {
                capture(ckpt);
                hist_at_ckpt = res.overflow_history.size();
            }
            if (durable.enabled() && it % durable.every() == 0) {
                recover::PipelineSnapshot snap;
                capture(snap);
                durable.save(snap);
            }
            recover::crash::maybe_kill("wl-mid");
            try {
                if (sguard.active() &&
                    recover::fault::fire("wirelength-gp",
                                         recover::FaultKind::HpwlExplosion,
                                         it)) {
                    solver = NesterovSolver(
                        fling_out(solver.solution(), d.region.center()),
                        nes_cfg);
                }
                const ObjectiveTerms terms =
                    obj.evaluate(d, movable, solver.reference(), grad);
                if (sguard.active())
                    check_objective_terms(
                        terms.wirelength + terms.density + terms.overflow,
                        terms.wirelength,
                        cfg_.recover.hpwl_explosion_factor *
                            std::max(ckpt.last_wl, die_bound),
                        "wirelength-gp", "iteration", it);
                res.overflow_history.push_back(terms.overflow);
                if (sguard.active() && !grad.empty() &&
                    recover::fault::fire("wirelength-gp",
                                         recover::FaultKind::GradientNaN,
                                         it))
                    grad[0].x = std::numeric_limits<double>::quiet_NaN();
                if (sguard.active())
                    check_finite(grad, "wirelength-gp", "gradient",
                                 "iteration", it);
                solver.step(grad, project);
                obj.set_lambda1(obj.lambda1() * lambda1_growth);
                obj.set_gamma(
                    std::max(obj.gamma() * cfg_.gamma_decay, gamma_min));
                ++res.wl_iters;
                last_wl = terms.wirelength;
                if (cfg_.verbose && it % 50 == 0) {
                    RDP_LOG_INFO()
                        << "[wl-iter " << it << "] overflow="
                        << terms.overflow << " WA=" << terms.wirelength;
                }
                const bool done =
                    terms.overflow < cfg_.stop_overflow && it > 20;
                ++it;
                if (done) break;
            } catch (const recover::RecoverableError& e) {
                if (!apply_recovery(e.kind(), e.what())) break;
            } catch (const AuditFailure& e) {
                if (!sguard.active()) throw;
                if (!apply_recovery(recover::classify_audit_failure(e),
                                    e.what()))
                    break;
            }
        }
        const std::vector<Vec2>& sol = solver.solution();
        for (size_t i = 0; i < movable.size(); ++i)
            d.cells[static_cast<size_t>(movable[i])].pos = sol[i];
    }

    // ---- Stage 2: routability-driven GP ------------------------------------
    if (cfg_.mode != PlacerMode::WirelengthOnly) {
        // PG rail selection from macro positions (Fig. 2 pre-process).
        const std::vector<PGRail> rails = select_pg_rails(d, cfg_.rail_select);
        recover::StageGuard sguard("routability-gp", cfg_.recover,
                                   &res.recovery);
        try {
            const RoutabilityStats rs = run_routability_stage(
                d, movable, obj, cfg_, rails, first_filler, &durable,
                resume_stage2 ? &*resume : nullptr);
            res.route_outer_iters = rs.outer_iters;
            res.congestion_history = rs.total_overflow;
            res.penalty_history = rs.penalty;
            res.route_best_iter = rs.best_iter;
            res.recovery.events.insert(res.recovery.events.end(),
                                       rs.recovery.events.begin(),
                                       rs.recovery.events.end());
            res.recovery.rollbacks += rs.recovery.rollbacks;
            res.recovery.degraded_stages += rs.recovery.degraded_stages;
        } catch (const AuditFailure& e) {
            // The stage handles in-loop failures itself; anything escaping
            // (entry/exit audits) skips the optional stage: the stage-1
            // placement continues into legalization.
            if (!sguard.active()) throw;
            obj.set_congestion(nullptr, nullptr);
            obj.set_extra_density(nullptr);
            obj.set_inflation(nullptr);
            sguard.degrade(recover::classify_audit_failure(e), -1,
                           std::string("routability stage skipped: ") +
                               e.what());
        } catch (const recover::RecoverableError& e) {
            if (!sguard.active()) throw;
            obj.set_congestion(nullptr, nullptr);
            obj.set_extra_density(nullptr);
            obj.set_inflation(nullptr);
            sguard.degrade(e.kind(), -1,
                           std::string("routability stage skipped: ") +
                               e.what());
        }
    }

    // ---- Legalization + detailed placement ---------------------------------
    // Strip fillers (they were appended last and own no pins).
    d.cells.resize(static_cast<size_t>(first_filler));
    d.clamp_movables_to_region();
    res.hpwl_gp = total_hpwl(d);

    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i)
        desired[static_cast<size_t>(i)] = d.cells[static_cast<size_t>(i)].pos;

    {
        const AuditStageScope audit_scope("legalize");
        recover::StageGuard sguard("legalize", cfg_.recover, &res.recovery);
        try {
            res.legal_stats = tetris_legalize(d, cfg_.tetris);
            abacus_refine(d, desired);
            res.dp_stats = detailed_place(d, cfg_.dp);
            if (cfg_.enable_pin_access_dp) {
                const std::vector<PGRail> rails =
                    select_pg_rails(d, cfg_.rail_select);
                pin_access_refine(d, rails);
            }
            // Invariant audit: the legalization pipeline must leave every
            // cell row/site-aligned and overlap-free. Skipped when Tetris
            // reported unplaceable cells (pathological utilization) — the
            // failure is already visible in legal_stats.
            if (audit_enabled() && res.legal_stats.cells_failed == 0)
                audit::check_legalized(d);
        } catch (const AuditFailure& e) {
            // A tripped legalization audit degrades to the best-effort
            // placement instead of ending the run; the violation stays
            // visible in the recovery report.
            if (!sguard.active()) throw;
            sguard.degrade(recover::classify_audit_failure(e), -1,
                           std::string("returning best-effort"
                                       " legalization: ") +
                               e.what());
        }
    }
    res.hpwl_final = total_hpwl(d);

    res.placed = std::move(d);
    const auto t1 = std::chrono::steady_clock::now();
    res.place_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

}  // namespace rdp

// Link-time interposition of the placer's layer entry points, linked only
// into the traced benchmark binary.
//
// Every `#define SYM_*` below names one mangled symbol; CMakeLists.txt
// reads these lines and links the traced binary with -Wl,--wrap=<symbol>
// for each, so calls to <symbol> that cross a translation unit land in
// __wrap_<symbol> here, and __real_<symbol> reaches the original. Calls
// inside one translation unit, and virtual calls, are not interposed.
//
// A signature change in src/ changes the mangled name; the __real_<old>
// reference then fails to link, so a stale wrap cannot silently stop
// measuring.
//
// Member functions are wrapped as free functions taking the object pointer
// first, which is how the Itanium C++ ABI passes `this` (after the hidden
// return-slot pointer, in the same place for both).

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "congestion/congestion_field.hpp"
#include "congestion/net_moving.hpp"
#include "congestion/rudy.hpp"
#include "density/electro_density.hpp"
#include "eval/drv_proxy.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/tetris.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "poisson/poisson.hpp"
#include "recover/durable_checkpoint.hpp"
#include "router/global_router.hpp"
#include "trace.hpp"
#include "util/io_atomic.hpp"
#include "util/parallel.hpp"
#include "wirelength/wa_model.hpp"

#define SYM_MAZE_ROUTE "_ZN3rdp10maze_routeEiiiiRKNS_14RouteCostModelERKNS_10MazeConfigE"
#define SYM_PATTERN_ROUTE_INTO "_ZN3rdp18pattern_route_intoEiiiiRKNS_14RouteCostModelEiRNS_14PatternScratchERNS_9RoutePathE"
#define SYM_ROUTE "_ZNK3rdp12GlobalRouter5routeERKNS_6DesignE"
#define SYM_ROUTE_INC "_ZNK3rdp12GlobalRouter5routeERKNS_6DesignEPNS_21IncrementalRouteStateE"
#define SYM_DRV_PROXY "_ZN3rdp9drv_proxyERKNS_6DesignERKNS_11RouteResultERKNS_14DrvProxyConfigE"
#define SYM_OBJECTIVE_EVAL "_ZNK3rdp18PlacementObjective8evaluateERNS_6DesignERKSt6vectorIiSaIiEERKS3_INS_4Vec2ESaIS8_EERSA_"
#define SYM_NESTEROV_STEP "_ZN3rdp14NesterovSolver4stepERKSt6vectorINS_4Vec2ESaIS2_EERKSt8functionIFS2_mS2_EE"
#define SYM_ROUTABILITY_STAGE "_ZN3rdp21run_routability_stageERNS_6DesignERKSt6vectorIiSaIiEERNS_18PlacementObjectiveERKNS_12PlacerConfigERKS2_INS_6PGRailESaISC_EEiPNS_7recover19DurableCheckpointerEPKNSH_16PipelineSnapshotE"
#define SYM_WA_EVALUATE "_ZNK3rdp12WAWirelength8evaluateERKNS_6DesignE"
#define SYM_DENSITY_EVALUATE "_ZNK3rdp14ElectroDensity8evaluateERKNS_6DesignEPKSt6vectorIdSaIdEEPKNS_6Grid2DIdEE"
#define SYM_NET_MOVING "_ZNK3rdp17NetMovingGradient7computeERKNS_6DesignERKNS_13CongestionMapERKNS_15CongestionFieldE"
#define SYM_FIELD_BUILD "_ZN3rdp15CongestionField5buildERKNS_13CongestionMapE"
#define SYM_RUDY_CONGESTION "_ZN3rdp15rudy_congestionERKNS_6DesignERKNS_7BinGridERKNS_12RouterConfigERKNS_10RudyConfigEPNS_20IncrementalRudyStateE"
#define SYM_POISSON_SOLVE "_ZNK3rdp13PoissonSolver5solveERKNS_6Grid2DIdEERNS_16PoissonWorkspaceEd"
#define SYM_TETRIS "_ZN3rdp15tetris_legalizeERNS_6DesignERKNS_12TetrisConfigE"
#define SYM_ABACUS "_ZN3rdp13abacus_refineERNS_6DesignERKSt6vectorINS_4Vec2ESaIS3_EE"
#define SYM_DETAILED_PLACE "_ZN3rdp14detailed_placeERNS_6DesignERKNS_19DetailedPlaceConfigE"
#define SYM_CHECKPOINT_SAVE "_ZN3rdp7recover19DurableCheckpointer4saveERKNS0_16PipelineSnapshotE"
#define SYM_ATOMIC_WRITE "_ZN3rdp2io12atomic_writeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKvmPS6_RKNS0_18AtomicWriteOptionsE"
#define SYM_RUN_CHUNKS "_ZN3rdp3par10run_chunksERKNS0_9ChunkPlanERKSt8functionIFvmmmEE"

#define REAL(sym) __asm__("__real_" sym)
#define WRAP(sym) __asm__("__wrap_" sym)

using namespace rdp;
using e2e::trace::Scope;

// ---- router ---------------------------------------------------------------

RoutePath real_maze_route(int, int, int, int, const RouteCostModel&,
                          const MazeConfig&) REAL(SYM_MAZE_ROUTE);
RoutePath wrap_maze_route(int, int, int, int, const RouteCostModel&,
                          const MazeConfig&) WRAP(SYM_MAZE_ROUTE);
RoutePath wrap_maze_route(int x0, int y0, int x1, int y1,
                          const RouteCostModel& m, const MazeConfig& cfg) {
    const Scope s("router.maze_route");
    return real_maze_route(x0, y0, x1, y1, m, cfg);
}

void real_pattern_route_into(int, int, int, int, const RouteCostModel&, int,
                             PatternScratch&, RoutePath&)
    REAL(SYM_PATTERN_ROUTE_INTO);
void wrap_pattern_route_into(int, int, int, int, const RouteCostModel&, int,
                             PatternScratch&, RoutePath&)
    WRAP(SYM_PATTERN_ROUTE_INTO);
void wrap_pattern_route_into(int x0, int y0, int x1, int y1,
                             const RouteCostModel& m, int bends,
                             PatternScratch& scratch, RoutePath& out) {
    const Scope s("router.pattern_route");
    real_pattern_route_into(x0, y0, x1, y1, m, bends, scratch, out);
}

namespace {
void count_route(const RouteResult& r) {
    e2e::trace::count("rrr_rounds_executed", r.rrr_rounds_executed);
    e2e::trace::count("rrr_rounds_stalled", r.rrr_rounds_stalled);
    e2e::trace::count("inc_conns_total", r.inc_conns_total);
    e2e::trace::count("inc_conns_rerouted", r.inc_conns_rerouted);
}
}  // namespace

RouteResult real_route(const GlobalRouter*, const Design&) REAL(SYM_ROUTE);
RouteResult wrap_route(const GlobalRouter*, const Design&) WRAP(SYM_ROUTE);
RouteResult wrap_route(const GlobalRouter* self, const Design& d) {
    const Scope s("router.route");
    RouteResult r = real_route(self, d);
    count_route(r);
    return r;
}

RouteResult real_route_inc(const GlobalRouter*, const Design&,
                           IncrementalRouteState*) REAL(SYM_ROUTE_INC);
RouteResult wrap_route_inc(const GlobalRouter*, const Design&,
                           IncrementalRouteState*) WRAP(SYM_ROUTE_INC);
RouteResult wrap_route_inc(const GlobalRouter* self, const Design& d,
                           IncrementalRouteState* state) {
    const Scope s("router.route");
    RouteResult r = real_route_inc(self, d, state);
    count_route(r);
    return r;
}

// ---- eval -----------------------------------------------------------------

DrvReport real_drv_proxy(const Design&, const RouteResult&,
                         const DrvProxyConfig&) REAL(SYM_DRV_PROXY);
DrvReport wrap_drv_proxy(const Design&, const RouteResult&,
                         const DrvProxyConfig&) WRAP(SYM_DRV_PROXY);
DrvReport wrap_drv_proxy(const Design& d, const RouteResult& rr,
                         const DrvProxyConfig& cfg) {
    const Scope s("eval.drv_proxy");
    return real_drv_proxy(d, rr, cfg);
}

// ---- place ----------------------------------------------------------------

ObjectiveTerms real_objective_eval(const PlacementObjective*, Design&,
                                   const std::vector<int>&,
                                   const std::vector<Vec2>&,
                                   std::vector<Vec2>&) REAL(SYM_OBJECTIVE_EVAL);
ObjectiveTerms wrap_objective_eval(const PlacementObjective*, Design&,
                                   const std::vector<int>&,
                                   const std::vector<Vec2>&,
                                   std::vector<Vec2>&) WRAP(SYM_OBJECTIVE_EVAL);
ObjectiveTerms wrap_objective_eval(const PlacementObjective* self, Design& d,
                                   const std::vector<int>& movable,
                                   const std::vector<Vec2>& pos,
                                   std::vector<Vec2>& grad) {
    const Scope s("place.objective_eval");
    return real_objective_eval(self, d, movable, pos, grad);
}

void real_nesterov_step(NesterovSolver*, const std::vector<Vec2>&,
                        const std::function<Vec2(size_t, Vec2)>&)
    REAL(SYM_NESTEROV_STEP);
void wrap_nesterov_step(NesterovSolver*, const std::vector<Vec2>&,
                        const std::function<Vec2(size_t, Vec2)>&)
    WRAP(SYM_NESTEROV_STEP);
void wrap_nesterov_step(NesterovSolver* self, const std::vector<Vec2>& grad,
                        const std::function<Vec2(size_t, Vec2)>& project) {
    const Scope s("place.nesterov_step");
    real_nesterov_step(self, grad, project);
}

RoutabilityStats real_routability_stage(Design&, const std::vector<int>&,
                                        PlacementObjective&,
                                        const PlacerConfig&,
                                        const std::vector<PGRail>&, int,
                                        recover::DurableCheckpointer*,
                                        const recover::PipelineSnapshot*)
    REAL(SYM_ROUTABILITY_STAGE);
RoutabilityStats wrap_routability_stage(Design&, const std::vector<int>&,
                                        PlacementObjective&,
                                        const PlacerConfig&,
                                        const std::vector<PGRail>&, int,
                                        recover::DurableCheckpointer*,
                                        const recover::PipelineSnapshot*)
    WRAP(SYM_ROUTABILITY_STAGE);
RoutabilityStats wrap_routability_stage(
    Design& d, const std::vector<int>& movable, PlacementObjective& obj,
    const PlacerConfig& cfg, const std::vector<PGRail>& rails,
    int first_filler, recover::DurableCheckpointer* durable,
    const recover::PipelineSnapshot* resume) {
    const Scope s("place.routability_stage");
    return real_routability_stage(d, movable, obj, cfg, rails, first_filler,
                                  durable, resume);
}

// ---- wirelength / density / congestion / poisson --------------------------

WirelengthResult real_wa_evaluate(const WAWirelength*, const Design&)
    REAL(SYM_WA_EVALUATE);
WirelengthResult wrap_wa_evaluate(const WAWirelength*, const Design&)
    WRAP(SYM_WA_EVALUATE);
WirelengthResult wrap_wa_evaluate(const WAWirelength* self, const Design& d) {
    const Scope s("wirelength.wa");
    return real_wa_evaluate(self, d);
}

DensityResult real_density_evaluate(const ElectroDensity*, const Design&,
                                    const std::vector<double>*, const GridF*)
    REAL(SYM_DENSITY_EVALUATE);
DensityResult wrap_density_evaluate(const ElectroDensity*, const Design&,
                                    const std::vector<double>*, const GridF*)
    WRAP(SYM_DENSITY_EVALUATE);
DensityResult wrap_density_evaluate(const ElectroDensity* self,
                                    const Design& d,
                                    const std::vector<double>* inflation,
                                    const GridF* extra) {
    const Scope s("density.evaluate");
    return real_density_evaluate(self, d, inflation, extra);
}

NetMovingResult real_net_moving(const NetMovingGradient*, const Design&,
                                const CongestionMap&, const CongestionField&)
    REAL(SYM_NET_MOVING);
NetMovingResult wrap_net_moving(const NetMovingGradient*, const Design&,
                                const CongestionMap&, const CongestionField&)
    WRAP(SYM_NET_MOVING);
NetMovingResult wrap_net_moving(const NetMovingGradient* self,
                                const Design& d, const CongestionMap& cmap,
                                const CongestionField& field) {
    const Scope s("congestion.net_moving");
    return real_net_moving(self, d, cmap, field);
}

void real_field_build(CongestionField*, const CongestionMap&)
    REAL(SYM_FIELD_BUILD);
void wrap_field_build(CongestionField*, const CongestionMap&)
    WRAP(SYM_FIELD_BUILD);
void wrap_field_build(CongestionField* self, const CongestionMap& cmap) {
    const Scope s("congestion.field_build");
    real_field_build(self, cmap);
}

CongestionMap real_rudy_congestion(const Design&, const BinGrid&,
                                   const RouterConfig&, const RudyConfig&,
                                   IncrementalRudyState*)
    REAL(SYM_RUDY_CONGESTION);
CongestionMap wrap_rudy_congestion(const Design&, const BinGrid&,
                                   const RouterConfig&, const RudyConfig&,
                                   IncrementalRudyState*)
    WRAP(SYM_RUDY_CONGESTION);
CongestionMap wrap_rudy_congestion(const Design& d, const BinGrid& grid,
                                   const RouterConfig& rc,
                                   const RudyConfig& cfg,
                                   IncrementalRudyState* state) {
    const Scope s("congestion.rudy");
    return real_rudy_congestion(d, grid, rc, cfg, state);
}

const PoissonSolution& real_poisson_solve(const PoissonSolver*, const GridF&,
                                          PoissonWorkspace&, double)
    REAL(SYM_POISSON_SOLVE);
const PoissonSolution& wrap_poisson_solve(const PoissonSolver*, const GridF&,
                                          PoissonWorkspace&, double)
    WRAP(SYM_POISSON_SOLVE);
const PoissonSolution& wrap_poisson_solve(const PoissonSolver* self,
                                          const GridF& rho,
                                          PoissonWorkspace& ws,
                                          double charge_scale) {
    const Scope s("poisson.solve");
    return real_poisson_solve(self, rho, ws, charge_scale);
}

// ---- legal ----------------------------------------------------------------

LegalizeStats real_tetris(Design&, const TetrisConfig&) REAL(SYM_TETRIS);
LegalizeStats wrap_tetris(Design&, const TetrisConfig&) WRAP(SYM_TETRIS);
LegalizeStats wrap_tetris(Design& d, const TetrisConfig& cfg) {
    const Scope s("legal.tetris");
    return real_tetris(d, cfg);
}

double real_abacus(Design&, const std::vector<Vec2>&) REAL(SYM_ABACUS);
double wrap_abacus(Design&, const std::vector<Vec2>&) WRAP(SYM_ABACUS);
double wrap_abacus(Design& d, const std::vector<Vec2>& desired) {
    const Scope s("legal.abacus");
    return real_abacus(d, desired);
}

DetailedPlaceStats real_detailed_place(Design&, const DetailedPlaceConfig&)
    REAL(SYM_DETAILED_PLACE);
DetailedPlaceStats wrap_detailed_place(Design&, const DetailedPlaceConfig&)
    WRAP(SYM_DETAILED_PLACE);
DetailedPlaceStats wrap_detailed_place(Design& d,
                                       const DetailedPlaceConfig& cfg) {
    const Scope s("legal.detailed_place");
    return real_detailed_place(d, cfg);
}

// ---- recover --------------------------------------------------------------

void real_checkpoint_save(recover::DurableCheckpointer*,
                          const recover::PipelineSnapshot&)
    REAL(SYM_CHECKPOINT_SAVE);
void wrap_checkpoint_save(recover::DurableCheckpointer*,
                          const recover::PipelineSnapshot&)
    WRAP(SYM_CHECKPOINT_SAVE);
void wrap_checkpoint_save(recover::DurableCheckpointer* self,
                          const recover::PipelineSnapshot& snap) {
    const Scope s("recover.checkpoint_save");
    real_checkpoint_save(self, snap);
}

bool real_atomic_write(const std::string&, const void*, std::size_t,
                       std::string*, const io::AtomicWriteOptions&)
    REAL(SYM_ATOMIC_WRITE);
bool wrap_atomic_write(const std::string&, const void*, std::size_t,
                       std::string*, const io::AtomicWriteOptions&)
    WRAP(SYM_ATOMIC_WRITE);
bool wrap_atomic_write(const std::string& path, const void* data,
                       std::size_t size, std::string* error,
                       const io::AtomicWriteOptions& opts) {
    const bool ok = real_atomic_write(path, data, size, error, opts);
    if (ok) e2e::trace::count("bytes_written", static_cast<int64_t>(size));
    return ok;
}

// ---- thread pool: pool-side spans inherit the submitting span -------------

void real_run_chunks(const par::ChunkPlan&,
                     const std::function<void(size_t, size_t, size_t)>&)
    REAL(SYM_RUN_CHUNKS);
void wrap_run_chunks(const par::ChunkPlan&,
                     const std::function<void(size_t, size_t, size_t)>&)
    WRAP(SYM_RUN_CHUNKS);
void wrap_run_chunks(const par::ChunkPlan& p,
                     const std::function<void(size_t, size_t, size_t)>& fn) {
    const int64_t parent = e2e::trace::current();
    if (!e2e::trace::enabled() || parent == 0) {
        real_run_chunks(p, fn);
        return;
    }
    real_run_chunks(p, [&fn, parent](size_t b, size_t e, size_t c) {
        const e2e::trace::InheritParent inherit(parent);
        fn(b, e, c);
    });
}

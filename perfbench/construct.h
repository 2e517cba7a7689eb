/**
 * @file
 * Construction, load and probe helpers shared by the `build` workload
 * and the artifact preparation of the serving workloads. Each call
 * into a layer is wrapped in a span named after the layer.
 */
#ifndef WETPERF_CONSTRUCT_H
#define WETPERF_CONSTRUCT_H

#include <memory>
#include <string>
#include <vector>

#include "analysis/moduleanalysis.h"
#include "core/compressed.h"
#include "core/session.h"
#include "ir/module.h"
#include "perf.h"
#include "wetio/wetio.h"
#include "workloads/workloads.h"

namespace perf {

/** The nine single-threaded paper programs, in table order. */
const std::vector<const wet::workloads::Workload*>& paperPrograms();

/**
 * Run length of the `build` workload: a sixteenth of the default
 * scale, a quarter of Table 5's. Most programs then build in under
 * half a second (164.gzip, already at its smallest scale, in about
 * 1.3 s), so a 30 s run repeats every build about eight times, often
 * enough for its cost (perf::cost) to find the host's quiet moments.
 */
inline uint64_t
buildScale(const wet::workloads::Workload& w)
{
    return w.defaultScale / 16 > 0 ? w.defaultScale / 16 : 1;
}

/** A compiled and analysed program (spans: lang.compile,
 *  analysis.moduleanalysis). */
struct Program
{
    Program(const wet::workloads::Workload& w, uint64_t scale);

    const wet::workloads::Workload* workload;
    uint64_t scale;
    std::unique_ptr<wet::ir::Module> mod;
    std::unique_ptr<wet::analysis::ModuleAnalysis> ma;
};

/** One construction: statements traced, bytes saved, wall time. */
struct Built
{
    uint64_t stmts = 0;
    uint64_t bytes = 0;
    double seconds = 0;
};

/**
 * Trace @p p, build tier 1, encode tier 2 and save to @p path
 * (spans: core.builder.run, core.compressed, wetio.save). When
 * tracing, the interpreter first runs alone into a no-op sink
 * (span interp.run) and the encoder's stream counts are recorded.
 */
Built construct(const Program& p, const std::string& path);

/** wetio::tryLoad (span wetio.load); @p problem names the first
 *  diagnostic, or stays empty when the artifact loaded cleanly. */
wet::wetio::LoadedWet loadChecked(const std::string& path,
                                  const wet::ir::Module& mod,
                                  std::string& problem);

/** Forward, backward (positioning apart) and random-access decode
 *  over the largest streams of @p c, up to @p maxValues values. */
void probeDecode(const wet::core::WetCompressed& c, uint64_t seed,
                 uint64_t maxValues = 4u << 20);

/** Build the static dependence graph once (span
 *  analysis.staticdep.build). */
void probeStaticDep(const wet::analysis::ModuleAnalysis& ma);

/** Time empty query scopes (span core.session.scope). */
void probeScope(wet::core::QuerySession& s);

/** Per-layer construction, load and decode metrics from the spans
 *  and counts recorded so far. */
void constructionMetrics(Report& r);

} // namespace perf

#endif // WETPERF_CONSTRUCT_H

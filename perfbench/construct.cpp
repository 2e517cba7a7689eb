/**
 * @file
 * The `build` workload (the paper's Table 5 / Table 1 run) and the
 * construction, load and decode layers every traced run reports.
 */
#include "construct.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "analysis/diag.h"
#include "analysis/staticdep.h"
#include "codec/cursor.h"
#include "core/builder.h"
#include "core/session.h"
#include "interp/interpreter.h"
#include "wetio/wetio.h"

namespace perf {

using namespace wet;

namespace {

/** Values the decode probe walks per artifact (largest streams). */
constexpr uint64_t kProbeValues = 4u << 20;
/** Random at() samples of the decode probe. */
constexpr int kRandomProbes = 2000;
/** Empty scopes timed by the session probe. */
constexpr int kScopeProbes = 2000;
/** Set-up repetitions of `build`; the median is reported. */
constexpr int kBuildSetups = 101;

template <typename F>
void
forEachStream(const core::WetCompressed& c, F&& f)
{
    const core::WetGraph& g = c.graph();
    for (core::NodeId n = 0; n < g.nodes.size(); ++n) {
        const core::CompressedNode& cn = c.node(n);
        f(cn.ts);
        for (const auto& p : cn.patterns)
            f(p);
        for (const auto& group : cn.uvals)
            for (const auto& uv : group)
                f(uv);
    }
    for (uint32_t i = 0; i < g.labelPool.size(); ++i) {
        f(c.pool(i).useInst);
        f(c.pool(i).defInst);
    }
    for (uint32_t t = 0; t < c.numSyncThreads(); ++t) {
        const core::CompressedSyncThread& s = c.sync(t);
        f(s.kind);
        f(s.obj);
        f(s.stmt);
        f(s.seq);
    }
}

uint64_t
fileBytes(const std::string& path)
{
    std::error_code ec;
    uint64_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

uint64_t
fileHash(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    return fnv(bytes);
}

double
spanSum(const std::vector<Tracer::Span>& spans, const std::string& name)
{
    double us = 0;
    for (const Tracer::Span& s : spans)
        if (s.name == name)
            us += s.us();
    return us;
}

} // namespace

const std::vector<const workloads::Workload*>&
paperPrograms()
{
    static const std::vector<const workloads::Workload*> v = [] {
        std::vector<const workloads::Workload*> p;
        for (const workloads::Workload& w : workloads::allWorkloads())
            if (w.name.rfind("mt.", 0) != 0)
                p.push_back(&w);
        return p;
    }();
    return v;
}

Program::Program(const workloads::Workload& w, uint64_t scale)
    : workload(&w), scale(scale)
{
    {
        SpanScope s("lang.compile");
        mod = std::make_unique<ir::Module>(
            workloads::compileWorkload(w));
    }
    SpanScope s("analysis.moduleanalysis");
    ma = std::make_unique<analysis::ModuleAnalysis>(*mod);
}

Built
construct(const Program& p, const std::string& path)
{
    if (tracer().on()) {
        // The interpreter alone, into a sink that ignores every
        // event: the builder's share is the difference to the run
        // below.
        interp::TraceSink noop;
        auto input = workloads::makeWorkloadInput(*p.workload, p.scale);
        SpanScope s("interp.run");
        interp::Interpreter it(*p.ma, *input, &noop);
        tracer().count("interp.stmts",
                       static_cast<double>(it.run().stmtsExecuted));
    }
    Built b;
    const double t0 = nowUs();
    auto input = workloads::makeWorkloadInput(*p.workload, p.scale);
    core::WetGraph graph;
    {
        SpanScope s("core.builder.run");
        core::WetBuilder builder(*p.ma);
        interp::Interpreter it(*p.ma, *input, &builder);
        b.stmts = it.run().stmtsExecuted;
        graph = builder.take();
    }
    std::unique_ptr<core::WetCompressed> c;
    {
        SpanScope s("core.compressed");
        c = std::make_unique<core::WetCompressed>(graph);
    }
    {
        SpanScope s("wetio.save");
        wetio::save(path, *p.mod, graph, *c);
    }
    b.seconds = (nowUs() - t0) / 1e6;
    b.bytes = fileBytes(path);
    if (tracer().on()) {
        forEachStream(*c, [&](const codec::CompressedStream& s) {
            if (s.length == 0)
                return;
            tracer().count("codec.streams", 1);
            tracer().count("codec.values", static_cast<double>(s.length));
            tracer().count("codec.bytes",
                           static_cast<double>(s.sizeBytes()));
        });
        tracer().count("wetio.bytes", static_cast<double>(b.bytes));
    }
    return b;
}

wetio::LoadedWet
loadChecked(const std::string& path, const ir::Module& mod,
            std::string& problem)
{
    analysis::DiagEngine diag;
    wetio::LoadedWet w;
    {
        SpanScope s("wetio.load");
        w = wetio::tryLoad(path, mod, diag);
    }
    if (!diag.diagnostics().empty() || !w.compressed) {
        problem = diag.diagnostics().empty()
                      ? "load failed"
                      : diag.diagnostics().front().rule + ": " +
                            diag.diagnostics().front().message;
    }
    return w;
}

void
probeDecode(const core::WetCompressed& c, uint64_t seed,
            uint64_t maxValues)
{
    std::vector<const codec::CompressedStream*> streams;
    forEachStream(c, [&](const codec::CompressedStream& s) {
        if (s.length >= 2)
            streams.push_back(&s);
    });
    std::stable_sort(streams.begin(), streams.end(),
                     [](const auto* a, const auto* b) {
                         return a->length > b->length;
                     });
    uint64_t total = 0;
    size_t keep = 0;
    while (keep < streams.size() && total < maxValues)
        total += streams[keep++]->length;
    streams.resize(keep);

    int64_t acc = 0;
    for (const codec::CompressedStream* s : streams) {
        codec::StreamCursor cur(*s, codec::StreamCursor::Mode::Forward);
        SpanScope sp("codec.fwd");
        for (uint64_t i = 0; i < s->length; ++i)
            acc += cur.next();
    }
    tracer().count("codec.fwd.values", static_cast<double>(total));

    uint64_t back = 0;
    for (const codec::CompressedStream* s : streams) {
        codec::StreamCursor cur(*s);
        {
            SpanScope sp("codec.position");
            acc += cur.at(s->length - 1);
        }
        cur.seek(s->length - 1);
        SpanScope sp("codec.bwd");
        while (cur.hasPrev())
            acc += cur.prev();
        back += s->length - 1;
    }
    tracer().count("codec.bwd.values", static_cast<double>(back));

    std::mt19937_64 rng(seed);
    std::vector<std::unique_ptr<codec::StreamCursor>> cursors(
        streams.size());
    for (int i = 0; i < kRandomProbes && !streams.empty(); ++i) {
        size_t k = rng() % streams.size();
        uint64_t q = rng() % streams[k]->length;
        if (!cursors[k])
            cursors[k] = std::make_unique<codec::StreamCursor>(
                *streams[k], codec::StreamCursor::Mode::Forward);
        SpanScope sp("codec.at_random");
        acc += cursors[k]->at(q);
    }
    // Keep the decoded values observable so no loop is elided.
    tracer().count("codec.checksum", static_cast<double>(acc & 0xff));
}

void
probeStaticDep(const analysis::ModuleAnalysis& ma)
{
    SpanScope s("analysis.staticdep.build");
    analysis::StaticDepGraph sdg(ma);
    tracer().count("analysis.staticdep.graphs", 1);
}

void
probeScope(core::QuerySession& s)
{
    for (int i = 0; i < kScopeProbes; ++i) {
        SpanScope sp("core.session.scope");
        core::QuerySession::Scope scope(s, "probe");
    }
}

void
constructionMetrics(Report& r)
{
    const std::vector<Tracer::Span> spans = tracer().spans();
    const Tracer& t = tracer();
    const double interpUs = spanSum(spans, "interp.run");
    const double compUs = spanSum(spans, "core.compressed");
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto n = [&](const std::string& name) {
        uint64_t k = 0;
        for (const Tracer::Span& s : spans)
            k += s.name == name;
        return k;
    };
    r.add("lang.compile_ms", spanSum(spans, "lang.compile") / 1e3, "ms",
          n("lang.compile"));
    r.add("analysis.moduleanalysis_ms",
          spanSum(spans, "analysis.moduleanalysis") / 1e3, "ms",
          n("analysis.moduleanalysis"));
    r.add("interp.mstmts_per_s", per(t.counted("interp.stmts"), interpUs),
          "Mstmt/s", n("interp.run"));
    r.add("core.builder.s",
          (spanSum(spans, "core.builder.run") - interpUs) / 1e6, "s",
          n("core.builder.run"));
    r.add("core.compressed.s", compUs / 1e6, "s", n("core.compressed"));
    r.add("core.compressed.streams", t.counted("codec.streams"), "count",
          n("core.compressed"));
    r.add("codec.encode.mvals_per_s", per(t.counted("codec.values"), compUs),
          "Mval/s", n("core.compressed"));
    r.add("codec.bytes_per_value",
          per(t.counted("codec.bytes"), t.counted("codec.values")),
          "B/value", n("core.compressed"));
    r.add("wetio.save_ms", spanSum(spans, "wetio.save") / 1e3, "ms",
          n("wetio.save"));
    r.add("wetio.load_ms", spanSum(spans, "wetio.load") / 1e3, "ms",
          n("wetio.load"));
    r.add("wetio.bytes", t.counted("wetio.bytes"), "B", n("wetio.save"));
    r.add("codec.fwd_mvals_per_s",
          per(t.counted("codec.fwd.values"), spanSum(spans, "codec.fwd")),
          "Mval/s", n("codec.fwd"));
    r.add("codec.bwd_mvals_per_s",
          per(t.counted("codec.bwd.values"), spanSum(spans, "codec.bwd")),
          "Mval/s", n("codec.bwd"));
    r.add("codec.position_ms", spanSum(spans, "codec.position") / 1e3,
          "ms", n("codec.position"));
    r.add("codec.at_random_us",
          per(spanSum(spans, "codec.at_random"),
              static_cast<double>(n("codec.at_random"))),
          "us", n("codec.at_random"));
    r.add("analysis.staticdep.build_ms",
          spanSum(spans, "analysis.staticdep.build") / 1e3, "ms",
          n("analysis.staticdep.build"));
}

void
runBuild(const Options& opt, Outcome& out)
{
    std::vector<const workloads::Workload*> order = paperPrograms();
    std::shuffle(order.begin(), order.end(), std::mt19937_64(opt.seed));

    // Set-up: compile and analyse the nine programs, several times.
    std::vector<double> setups;
    std::vector<std::unique_ptr<Program>> progs;
    for (int r = 0; r < kBuildSetups; ++r) {
        progs.clear();
        const double t0 = nowUs();
        for (const workloads::Workload* w : order)
            progs.push_back(
                std::make_unique<Program>(*w, buildScale(*w)));
        setups.push_back((nowUs() - t0) / 1e6);
    }

    // Timed phase: whole passes until --seconds have gone, at least
    // one, each program traced, built, compressed and saved once per
    // pass; every artifact is loaded back and must match the first
    // pass byte for byte.
    std::vector<double> opUs;
    std::vector<std::vector<double>> progUs(progs.size());
    std::vector<uint64_t> progStmts(progs.size());
    std::vector<uint64_t> firstHash(progs.size());
    uint64_t passStmts = 0;
    uint64_t passBytes = 0;
    double buildSecs = 0;
    uint64_t buildStmts = 0;
    int passes = 0;
    resetPeakRss();
    const double deadline = nowUs() + opt.seconds * 1e6;
    for (; passes == 0 || nowUs() < deadline; ++passes) {
        passStmts = passBytes = 0;
        for (size_t i = 0; i < progs.size(); ++i) {
            const Program& p = *progs[i];
            const std::string path =
                opt.work + "/build-" + std::to_string(i) + ".wetx";
            Built b = construct(p, path);
            opUs.push_back(b.seconds * 1e6);
            progUs[i].push_back(b.seconds * 1e6);
            progStmts[i] = b.stmts;
            buildSecs += b.seconds;
            buildStmts += b.stmts;
            passStmts += b.stmts;
            passBytes += b.bytes;
            ++out.attempted;
            std::string problem;
            loadChecked(path, *p.mod, problem);
            const uint64_t h = fileHash(path);
            if (passes == 0)
                firstHash[i] = h;
            else if (h != firstHash[i])
                problem = "artifact bytes differ between passes";
            if (!problem.empty()) {
                ++out.failed;
                std::printf("FAIL %s: %s\n", p.workload->name.c_str(),
                            problem.c_str());
            }
        }
    }
    // An operation is one program's construction, at its cost over
    // the passes (perf::cost).
    std::vector<double> opCost;
    for (size_t i = 0; i < progs.size(); ++i) {
        opCost.push_back(cost(progUs[i]));
        std::printf("program %-10s %9llu statements, cost %.0f us, n=%zu\n",
                    progs[i]->workload->name.c_str(),
                    static_cast<unsigned long long>(progStmts[i]),
                    opCost.back(), progUs[i].size());
    }

    out.facts["programs"] = std::to_string(progs.size());
    out.facts["stmts_per_pass"] = std::to_string(passStmts);
    out.facts["bytes_per_pass"] = std::to_string(passBytes);
    Report& r = out.report;
    r.add("setup_s", median(setups), "s", setups.size());
    r.add("peak_rss_mb", peakRssMb(), "MB", 1);
    r.add("artifact.bytes_per_stmt",
          static_cast<double>(passBytes) / static_cast<double>(passStmts),
          "B", 1);
    r.add("ops_per_s",
          static_cast<double>(opCost.size()) / (sum(opCost) / 1e6), "1/s",
          opUs.size());
    r.add("op_p50_us", median(opCost), "us", opUs.size());
    r.add("op_max_us", *std::max_element(opCost.begin(), opCost.end()),
          "us", opUs.size());
    r.add("p50_us", median(opUs), "us", opUs.size());
    r.add("p99_us", quantile(opUs, 0.99), "us", opUs.size());
    r.add("build.mstmts_per_s",
          static_cast<double>(buildStmts) / buildSecs / 1e6, "Mstmt/s",
          opUs.size());

    if (!opt.trace)
        return;

    // Traced pass: the same construction with a span around each
    // layer call, then load, decode, static-dependence and session
    // probes over the saved artifacts.
    tracer().enable();
    const double traced0 = nowUs();
    std::vector<std::unique_ptr<Program>> traced;
    for (const workloads::Workload* w : order)
        traced.push_back(std::make_unique<Program>(*w, buildScale(*w)));
    for (size_t i = 0; i < traced.size(); ++i)
        construct(*traced[i],
                  opt.work + "/build-" + std::to_string(i) + ".wetx");
    const double tracedSecs = (nowUs() - traced0) / 1e6;
    for (size_t i = 0; i < traced.size(); ++i) {
        const std::string path =
            opt.work + "/build-" + std::to_string(i) + ".wetx";
        std::string problem;
        wetio::LoadedWet w = loadChecked(path, *traced[i]->mod, problem);
        if (!w.compressed)
            continue;
        probeDecode(*w.compressed, opt.seed + i,
                    kProbeValues / traced.size());
        probeStaticDep(*traced[i]->ma);
        if (i + 1 == traced.size()) {
            core::QuerySession s(*traced[i]->mod, *w.compressed,
                                 w.backing);
            probeScope(s);
        }
    }
    constructionMetrics(r);

    // Accounting: compile + analysis + (interp + builder) + tier-2 +
    // save, against the untraced set-up plus one untraced pass.
    const std::vector<Tracer::Span> spans = tracer().spans();
    const double layersS =
        (spanSum(spans, "lang.compile") +
         spanSum(spans, "analysis.moduleanalysis") +
         spanSum(spans, "core.builder.run") +
         spanSum(spans, "core.compressed") + spanSum(spans, "wetio.save")) /
        1e6;
    const double untracedS = median(setups) + sum(opUs) / 1e6 / passes;
    const double dev = 100.0 * (layersS - untracedS) / untracedS;
    std::printf("accounting construction: layers %.3f s vs untraced "
                "%.3f s (%+.1f%%) %s\n",
                layersS, untracedS, dev,
                std::abs(dev) <= 15.0 ? "PASS" : "FAIL");
    // The traced pass also runs the interpreter alone, which the
    // untraced pass does not; overhead compares like with like.
    const double tracedLike = tracedSecs - spanSum(spans, "interp.run") / 1e6;
    r.add("trace.overhead_pct",
          100.0 * (tracedLike - untracedS) / untracedS, "%", 1);
    r.add("accounting.worst_dev_pct", std::abs(dev), "%", 1);
    r.add("core.session.scope_us",
          median([&] {
              std::vector<double> v;
              for (const Tracer::Span& s : spans)
                  if (s.name == "core.session.scope")
                      v.push_back(s.us());
              return v;
          }()),
          "us", kScopeProbes);
}

} // namespace perf

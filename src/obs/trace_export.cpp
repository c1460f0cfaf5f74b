#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>

#include "obs/json.hpp"

namespace fastnet::obs {

void append_canonical_record(std::string& out, const sim::TraceRecord& r) {
    // The fixed fields go through one stack buffer and one append. Seven
    // numbers of at most 20 characters (UINT64_MAX, or INT64_MIN with its
    // sign), the keys and the kind name need under 200 bytes.
    char buf[256];
    char* p = buf;
    const auto text = [&p](std::string_view s) { p = std::copy(s.begin(), s.end(), p); };
    const auto number = [&p](auto v) { p = std::to_chars(p, p + 20, v).ptr; };
    text("{\"at\":");
    number(r.at);
    text(",\"node\":");
    if (r.node == kNoNode)  // network scope
        text("-1");
    else
        number(r.node);
    text(",\"kind\":\"");
    text(sim::trace_kind_name(r.kind));
    text("\",\"lineage\":");
    number(r.lineage);
    text(",\"a\":");
    number(r.a);
    text(",\"b\":");
    number(r.b);
    // Causal anchor: emitted only when set, so records without one (and
    // pre-anchor exports) keep their exact historical bytes.
    if (r.c != 0) {
        text(",\"c\":");
        number(r.c);
    }
    text(",\"flag\":");
    number(static_cast<unsigned>(r.flag));
    if (r.detail.empty()) {
        text("}");
        out.append(buf, p);
        return;
    }
    text(",\"detail\":\"");
    out.append(buf, p);
    append_json_escaped(out, r.detail);
    out += "\"}";
}

ExportMeta make_meta(const graph::Graph& g, std::string name) {
    ExportMeta meta;
    meta.name = std::move(name);
    meta.nodes = g.node_count();
    meta.edges.reserve(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        const graph::Edge& edge = g.edge(e);
        meta.edges.emplace_back(edge.a, edge.b);
    }
    return meta;
}

std::string canonical_trace_json(const sim::Trace& trace, const ExportMeta& meta) {
    return canonical_trace_json(trace.snapshot(), meta, trace.total_recorded(),
                                trace.dropped(), trace.detail_dropped());
}

std::string canonical_trace_header(const ExportMeta& meta, std::uint64_t total_recorded,
                                   std::uint64_t dropped, std::uint64_t detail_dropped) {
    std::string out;
    out += "{\n\"fastnet_trace\": 1,\n\"name\": ";
    out += json_quote(meta.name);
    out += ",\n\"nodes\": ";
    out += std::to_string(meta.nodes);
    out += ",\n\"edges\": [";
    for (std::size_t e = 0; e < meta.edges.size(); ++e) {
        if (e != 0) out += ",";
        out += "[";
        out += std::to_string(meta.edges[e].first);
        out += ",";
        out += std::to_string(meta.edges[e].second);
        out += "]";
    }
    out += "],\n\"total_recorded\": ";
    out += std::to_string(total_recorded);
    out += ",\n\"dropped\": ";
    out += std::to_string(dropped);
    out += ",\n\"detail_dropped\": ";
    out += std::to_string(detail_dropped);
    out += ",\n\"records\": [\n";
    return out;
}

std::string canonical_trace_footer() { return "]\n}\n"; }

std::string canonical_trace_json(const std::vector<sim::TraceRecord>& records,
                                 const ExportMeta& meta, std::uint64_t total_recorded,
                                 std::uint64_t dropped, std::uint64_t detail_dropped) {
    std::string out = canonical_trace_header(meta, total_recorded, dropped, detail_dropped);
    for (std::size_t i = 0; i < records.size(); ++i) {
        append_canonical_record(out, records[i]);
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    out += canonical_trace_footer();
    return out;
}

namespace {

constexpr int kNcuPid = 1;
constexpr int kLinkPid = 2;

void append_event_prefix(std::string& out, std::string_view name, char ph, int pid) {
    out += "{\"name\":";
    out += json_quote(name);
    out += ",\"ph\":\"";
    out.push_back(ph);
    out += "\",\"pid\":" + std::to_string(pid);
}

void append_instant(std::string& out, std::string_view name, int pid, std::uint64_t tid,
                    Tick ts, const std::string& args) {
    append_event_prefix(out, name, 'i', pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + std::to_string(ts);
    out += ",\"s\":\"t\",\"args\":{" + args + "}},\n";
}

void append_complete(std::string& out, std::string_view name, std::uint64_t tid, Tick end,
                     std::uint64_t busy, const std::string& args) {
    // Clamp at the epoch: a handler's busy window cannot render before
    // t=0 (negative timestamps are schema violations), so an oversized
    // busy value just shortens the drawn duration.
    Tick dur = static_cast<Tick>(busy);
    if (dur > end) dur = end;
    append_event_prefix(out, name, 'X', kNcuPid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + std::to_string(end - dur);
    out += ",\"dur\":" + std::to_string(dur);
    out += ",\"args\":{" + args + "}},\n";
}

std::string lin_arg(std::uint64_t lineage) { return "\"lin\":" + std::to_string(lineage); }

}  // namespace

std::string chrome_trace_json(const sim::Trace& trace, const ExportMeta& meta) {
    return chrome_trace_json(trace.snapshot(), meta);
}

std::string chrome_trace_header(const ExportMeta& meta) {
    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    // Track naming metadata: one process per layer, one thread per node
    // NCU and one per link.
    append_event_prefix(out, "process_name", 'M', kNcuPid);
    out += ",\"args\":{\"name\":\"ncu\"}},\n";
    append_event_prefix(out, "process_name", 'M', kLinkPid);
    out += ",\"args\":{\"name\":\"links\"}},\n";
    for (NodeId u = 0; u < meta.nodes; ++u) {
        append_event_prefix(out, "thread_name", 'M', kNcuPid);
        out += ",\"tid\":" + std::to_string(u);
        out += ",\"args\":{\"name\":\"node " + std::to_string(u) + "\"}},\n";
    }
    for (std::size_t e = 0; e < meta.edges.size(); ++e) {
        append_event_prefix(out, "thread_name", 'M', kLinkPid);
        out += ",\"tid\":" + std::to_string(e);
        out += ",\"args\":{\"name\":\"link " + std::to_string(e) + " (" +
               std::to_string(meta.edges[e].first) + "-" +
               std::to_string(meta.edges[e].second) + ")\"}},\n";
    }
    return out;
}

void append_chrome_record(std::string& out, const sim::TraceRecord& r) {
    const std::uint64_t ncu_tid = r.node == kNoNode ? 0 : r.node;
    switch (r.kind) {
        case sim::TraceKind::kStart:
            append_complete(out, "start", ncu_tid, r.at, r.b, "");
            break;
        case sim::TraceKind::kDeliver:
            append_complete(out, "deliver", ncu_tid, r.at, r.b,
                            lin_arg(r.lineage) + ",\"hops\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kTimer:
            append_complete(out, "timer", ncu_tid, r.at, r.b,
                            lin_arg(r.lineage) + ",\"cookie\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kLinkChange:
            append_complete(out, r.flag ? "link_up" : "link_down", ncu_tid, r.at, r.b,
                            "\"edge\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kSend:
            append_instant(out, "send", kNcuPid, ncu_tid, r.at,
                           lin_arg(r.lineage) +
                               ",\"header_len\":" + std::to_string(r.a) +
                               ",\"parent\":" + std::to_string(r.b));
            break;
        case sim::TraceKind::kCrash:
            append_instant(out, "crash", kNcuPid, ncu_tid, r.at,
                           "\"incarnation\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kRestart:
            append_instant(out, "restart", kNcuPid, ncu_tid, r.at,
                           "\"incarnation\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kPhase:
            append_instant(out, "phase", kNcuPid, 0, r.at,
                           "\"phase\":" + std::to_string(r.a));
            break;
        case sim::TraceKind::kHop:
            append_instant(out, "hop", kLinkPid, r.a, r.at,
                           lin_arg(r.lineage) + ",\"hops\":" + std::to_string(r.b));
            break;
        case sim::TraceKind::kDup:
            append_instant(out, "dup", kLinkPid, r.a, r.at,
                           lin_arg(r.lineage) + ",\"copy_id\":" + std::to_string(r.b));
            break;
        case sim::TraceKind::kDrop: {
            const std::string args =
                lin_arg(r.lineage) + ",\"reason\":" +
                json_quote(sim::drop_reason_name(static_cast<sim::DropReason>(r.flag)));
            if (r.a != kNoEdge)
                append_instant(out, "drop", kLinkPid, r.a, r.at, args);
            else
                append_instant(out, "drop", kNcuPid, ncu_tid, r.at, args);
            break;
        }
        case sim::TraceKind::kViolation: {
            std::string args = lin_arg(r.lineage) + ",\"monitor\":" + std::to_string(r.a);
            if (!r.detail.empty()) args += ",\"detail\":" + json_quote(r.detail);
            append_instant(out, "violation", kNcuPid, ncu_tid, r.at, args);
            break;
        }
        case sim::TraceKind::kCallEvent:
            append_instant(out, "call", kNcuPid, ncu_tid, r.at,
                           lin_arg(r.lineage) + ",\"call\":\"" +
                               std::to_string(r.a >> 32) + "." +
                               std::to_string(r.a & 0xffffffffULL) +
                               "\",\"event\":" + std::to_string(r.b) +
                               ",\"attempt\":" + std::to_string(r.flag));
            break;
        case sim::TraceKind::kCustom: {
            std::string args = lin_arg(r.lineage);
            if (!r.detail.empty()) args += ",\"detail\":" + json_quote(r.detail);
            append_instant(out, "custom", kNcuPid, ncu_tid, r.at, args);
            break;
        }
    }
}

std::string chrome_trace_footer(const ExportMeta& meta) {
    // A final metadata event avoids trailing-comma bookkeeping above and
    // stamps the trace with its scenario name.
    std::string out;
    append_event_prefix(out, "trace_name", 'M', kNcuPid);
    out += ",\"args\":{\"name\":";
    out += json_quote(meta.name);
    out += "}}\n]}\n";
    return out;
}

std::string chrome_trace_json(const std::vector<sim::TraceRecord>& records,
                              const ExportMeta& meta) {
    std::string out = chrome_trace_header(meta);
    for (const sim::TraceRecord& r : records) append_chrome_record(out, r);
    out += chrome_trace_footer(meta);
    return out;
}

namespace {

bool check_fail(std::string* error, const std::string& msg) {
    if (error) *error = msg;
    return false;
}

bool require_uint(const JsonValue* v, const char* what, std::string* error) {
    if (v == nullptr || !v->is_uint())
        return check_fail(error, std::string("missing or non-integer ") + what);
    return true;
}

}  // namespace

bool load_canonical(std::string_view json_text, LoadedTrace& out, std::string* error) {
    JsonValue doc;
    if (!json_parse(json_text, doc, error)) return false;
    if (!doc.is_object()) return check_fail(error, "top level is not an object");
    const JsonValue* version = doc.find("fastnet_trace");
    if (version == nullptr || !version->is_uint() || version->uint_value != 1)
        return check_fail(error, "missing or unsupported fastnet_trace version");

    const JsonValue* name = doc.find("name");
    if (name == nullptr || !name->is_string())
        return check_fail(error, "missing or non-string name");
    out.meta.name = name->string;

    const JsonValue* nodes = doc.find("nodes");
    if (!require_uint(nodes, "nodes", error)) return false;
    out.meta.nodes = static_cast<NodeId>(nodes->uint_value);

    const JsonValue* edges = doc.find("edges");
    if (edges == nullptr || !edges->is_array())
        return check_fail(error, "missing or non-array edges");
    out.meta.edges.clear();
    for (const JsonValue& e : edges->array) {
        if (!e.is_array() || e.array.size() != 2 || !e.array[0].is_uint() ||
            !e.array[1].is_uint())
            return check_fail(error, "edge entry is not a pair of node ids");
        out.meta.edges.emplace_back(static_cast<NodeId>(e.array[0].uint_value),
                                    static_cast<NodeId>(e.array[1].uint_value));
    }

    const JsonValue* total = doc.find("total_recorded");
    const JsonValue* dropped = doc.find("dropped");
    const JsonValue* detail_dropped = doc.find("detail_dropped");
    if (!require_uint(total, "total_recorded", error)) return false;
    if (!require_uint(dropped, "dropped", error)) return false;
    if (!require_uint(detail_dropped, "detail_dropped", error)) return false;
    out.total_recorded = total->uint_value;
    out.dropped = dropped->uint_value;
    out.detail_dropped = detail_dropped->uint_value;

    const JsonValue* records = doc.find("records");
    if (records == nullptr || !records->is_array())
        return check_fail(error, "missing or non-array records");
    if (out.dropped > out.total_recorded)
        return check_fail(error, "dropped exceeds total_recorded");
    if (records->array.size() + out.dropped != out.total_recorded)
        return check_fail(error, "record count does not match total_recorded - dropped");

    out.records.clear();
    out.records.reserve(records->array.size());
    Tick prev_at = 0;
    for (std::size_t i = 0; i < records->array.size(); ++i) {
        const JsonValue& rv = records->array[i];
        const std::string where = "records[" + std::to_string(i) + "]";
        if (!rv.is_object()) return check_fail(error, where + " is not an object");
        sim::TraceRecord rec;

        const JsonValue* at = rv.find("at");
        if (at == nullptr || !at->is_uint())
            return check_fail(error, where + ": missing or negative at");
        rec.at = static_cast<Tick>(at->uint_value);
        if (rec.at < prev_at)
            return check_fail(error, where + ": records out of chronological order");
        prev_at = rec.at;

        const JsonValue* node = rv.find("node");
        if (node == nullptr)
            return check_fail(error, where + ": missing node");
        if (node->is_uint()) {
            rec.node = static_cast<NodeId>(node->uint_value);
        } else if (node->type == JsonValue::Type::kInt && node->int_value == -1) {
            rec.node = kNoNode;
        } else {
            return check_fail(error, where + ": node must be an id or -1");
        }

        const JsonValue* kind = rv.find("kind");
        if (kind == nullptr || !kind->is_string())
            return check_fail(error, where + ": missing kind");
        if (!sim::trace_kind_from_name(kind->string, rec.kind))
            return check_fail(error, where + ": unknown kind \"" + kind->string + "\"");

        const JsonValue* lineage = rv.find("lineage");
        const JsonValue* a = rv.find("a");
        const JsonValue* b = rv.find("b");
        const JsonValue* flag = rv.find("flag");
        if (lineage == nullptr || !lineage->is_uint())
            return check_fail(error, where + ": missing lineage");
        if (a == nullptr || !a->is_uint()) return check_fail(error, where + ": missing a");
        if (b == nullptr || !b->is_uint()) return check_fail(error, where + ": missing b");
        if (flag == nullptr || !flag->is_uint() || flag->uint_value > 255)
            return check_fail(error, where + ": missing or out-of-range flag");
        rec.lineage = lineage->uint_value;
        rec.a = a->uint_value;
        rec.b = b->uint_value;
        rec.flag = static_cast<std::uint8_t>(flag->uint_value);
        if (const JsonValue* c = rv.find("c")) {  // optional causal anchor
            if (!c->is_uint()) return check_fail(error, where + ": non-integer c");
            rec.c = c->uint_value;
        }

        if (const JsonValue* detail = rv.find("detail")) {
            if (!detail->is_string())
                return check_fail(error, where + ": non-string detail");
            rec.detail = detail->string;
        }
        out.records.push_back(std::move(rec));
    }
    return true;
}

bool check_canonical(std::string_view json_text, std::string* error) {
    LoadedTrace ignored;
    return load_canonical(json_text, ignored, error);
}

bool check_chrome(std::string_view json_text, std::string* error) {
    JsonValue doc;
    if (!json_parse(json_text, doc, error)) return false;
    if (!doc.is_object()) return check_fail(error, "top level is not an object");
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr || !events->is_array())
        return check_fail(error, "missing or non-array traceEvents");
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue& ev = events->array[i];
        const std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!ev.is_object()) return check_fail(error, where + " is not an object");
        const JsonValue* name = ev.find("name");
        if (name == nullptr || !name->is_string())
            return check_fail(error, where + ": missing name");
        const JsonValue* ph = ev.find("ph");
        if (ph == nullptr || !ph->is_string() || ph->string.size() != 1)
            return check_fail(error, where + ": missing phase");
        const JsonValue* pid = ev.find("pid");
        if (pid == nullptr || !pid->is_uint())
            return check_fail(error, where + ": missing pid");
        const char phase = ph->string[0];
        if (phase == 'M') {
            const JsonValue* args = ev.find("args");
            if (args == nullptr || !args->is_object())
                return check_fail(error, where + ": metadata without args");
            const JsonValue* arg_name = args->find("name");
            if (arg_name == nullptr || !arg_name->is_string())
                return check_fail(error, where + ": metadata args without name");
            continue;
        }
        if (phase != 'X' && phase != 'i')
            return check_fail(error, where + ": unknown phase \"" + ph->string + "\"");
        const JsonValue* tid = ev.find("tid");
        const JsonValue* ts = ev.find("ts");
        if (tid == nullptr || !tid->is_uint())
            return check_fail(error, where + ": missing tid");
        if (ts == nullptr || !ts->is_uint())
            return check_fail(error, where + ": missing or negative ts");
        if (phase == 'X') {
            const JsonValue* dur = ev.find("dur");
            if (dur == nullptr || !dur->is_uint())
                return check_fail(error, where + ": complete event without dur");
        } else {
            const JsonValue* scope = ev.find("s");
            if (scope == nullptr || !scope->is_string() ||
                (scope->string != "t" && scope->string != "p" && scope->string != "g"))
                return check_fail(error, where + ": instant without valid scope");
        }
    }
    return true;
}

}  // namespace fastnet::obs

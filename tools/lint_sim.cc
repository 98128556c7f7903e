/**
 * @file
 * Determinism and convention linter for the simulator sources.
 *
 * The stat gate proves runs are bit-identical on *this* build; this
 * tool statically rejects the patterns that make them silently
 * non-identical on the next one. It scans .hh/.cc files (comments
 * and string literals stripped) for:
 *
 *  - banned-call: wall-clock and libc/std randomness entry points
 *    (rand, srand, std::random_device, time(), system_clock, ...).
 *    All simulator randomness must flow through common/random.hh and
 *    host-time measurement through steady_clock (which never feeds
 *    stats).
 *
 *  - unordered-iteration: range-for or .begin() iteration over a
 *    std::unordered_map/set declared in the same file. Hash-order
 *    iteration is stat-poison: it differs across libstdc++ versions
 *    while staying deterministic within one build, so the stat gate
 *    cannot catch it. Membership queries (find/count/insert/erase)
 *    are fine.
 *
 *  - uninit-config-field: a field of a *Config or *Knobs struct with
 *    no default member initializer. Config structs are aggregates
 *    built field-by-field all over the benches; one forgotten field
 *    is uninitialized-read UB that may still print golden numbers.
 *
 *  - missing-mutator-assert: a public mutator of the hand-rolled
 *    ring/pool structures (common/pool.hh, cycle_list.hh,
 *    circular_queue.hh) whose body contains neither
 *    SIM_ASSERT nor SIM_AUDIT. Those structures earn their O(1)
 *    claims by maintaining invariants; a mutator with no check is a
 *    convention violation.
 *
 *  - snapshot-fields: a class declaring a fields() snapshot visitor
 *    (or a hand-written save*() codec) whose SIM_SNAPSHOT_FIELDS(N)
 *    annotation is missing or disagrees with the number of data
 *    members declared in its body. The visitor rules out save/
 *    restore drift but cannot notice a member it never visits: the
 *    count is the tripwire that forces every new member through a
 *    snapshot review; a stale count means a member was added
 *    without one.
 *
 * Vetted exceptions live in an allowlist file (one per line:
 * "<rule> <path-suffix>", '#' comments). It is empty by default and
 * should stay that way; new entries need review.
 *
 *   lint_sim [--allowlist FILE] DIR_OR_FILE...
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace
{

struct Finding
{
    std::string path;
    std::size_t line;
    std::string rule;
    std::string message;
};

struct AllowEntry
{
    std::string rule;
    std::string pathSuffix;
};

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * The file contents with comments and string/char literals blanked
 * (replaced by spaces, newlines kept), so token scans cannot trip
 * over documentation or message text.
 */
std::string
stripCommentsAndStrings(const std::string &in)
{
    std::string out = in;
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
    };
    State st = State::Code;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char next = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (st) {
          case State::Code:
            if (c == '/' && next == '/') {
                st = State::LineComment;
                out[i] = ' ';
            } else if (c == '/' && next == '*') {
                st = State::BlockComment;
                out[i] = ' ';
            } else if (c == '"') {
                st = State::String;
            } else if (c == '\'') {
                st = State::Char;
            }
            break;
          case State::LineComment:
            if (c == '\n')
                st = State::Code;
            else
                out[i] = ' ';
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::String:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::Char:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::size_t
lineOfOffset(const std::string &text, std::size_t off)
{
    return 1 + static_cast<std::size_t>(
                   std::count(text.begin(), text.begin() + off, '\n'));
}

/** Find `token` at @p from with a non-word character on each side. */
std::size_t
findWord(const std::string &text, const std::string &token,
         std::size_t from)
{
    for (std::size_t pos = text.find(token, from);
         pos != std::string::npos; pos = text.find(token, pos + 1)) {
        const bool okBefore = pos == 0 || !isWordChar(text[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool okAfter =
            end >= text.size() || !isWordChar(text[end]);
        if (okBefore && okAfter)
            return pos;
    }
    return std::string::npos;
}

/** Skip whitespace from @p pos. */
std::size_t
skipWs(const std::string &text, std::size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos;
}

// ---------------------------------------------------------------------
// Rule: banned-call
// ---------------------------------------------------------------------

struct BannedToken
{
    const char *token;
    bool requiresCall; //!< only flag when followed by '('
    const char *why;
};

constexpr BannedToken kBanned[] = {
    {"rand", true, "use cdfsim::Random (common/random.hh)"},
    {"srand", true, "use cdfsim::Random (common/random.hh)"},
    {"drand48", true, "use cdfsim::Random (common/random.hh)"},
    {"lrand48", true, "use cdfsim::Random (common/random.hh)"},
    {"random_device", false,
     "nondeterministic seed; use cdfsim::Random with a fixed seed"},
    {"time", true, "wall clock in simulator code; derive from cycles"},
    {"gettimeofday", true,
     "wall clock in simulator code; derive from cycles"},
    {"system_clock", false,
     "wall clock; use steady_clock for host-time profiling only"},
    {"getrandom", true,
     "nondeterministic; use cdfsim::Random with a fixed seed"},
};

void
lintBannedCalls(const std::string &path, const std::string &code,
                std::vector<Finding> &findings)
{
    for (const BannedToken &b : kBanned) {
        std::size_t pos = 0;
        while ((pos = findWord(code, b.token, pos)) !=
               std::string::npos) {
            const std::size_t after =
                skipWs(code, pos + std::strlen(b.token));
            if (!b.requiresCall ||
                (after < code.size() && code[after] == '(')) {
                findings.push_back(
                    {path, lineOfOffset(code, pos), "banned-call",
                     std::string("'") + b.token + "': " + b.why});
            }
            ++pos;
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------

/** Names declared in this file as std::unordered_{map,set}<...>. */
std::set<std::string>
unorderedNames(const std::string &code)
{
    std::set<std::string> names;
    for (const char *kind : {"unordered_map", "unordered_set"}) {
        std::size_t pos = 0;
        while ((pos = findWord(code, kind, pos)) !=
               std::string::npos) {
            std::size_t i = skipWs(code, pos + std::strlen(kind));
            pos += 1;
            if (i >= code.size() || code[i] != '<')
                continue;
            // Balance template brackets to find the declared name.
            int depth = 0;
            for (; i < code.size(); ++i) {
                if (code[i] == '<')
                    ++depth;
                else if (code[i] == '>' && --depth == 0) {
                    ++i;
                    break;
                }
            }
            // Skip qualifiers between the type and the declared
            // name: "const", references, pointers.
            while (true) {
                i = skipWs(code, i);
                if (i < code.size() &&
                    (code[i] == '&' || code[i] == '*')) {
                    ++i;
                    continue;
                }
                if (code.compare(i, 5, "const") == 0 &&
                    (i + 5 >= code.size() ||
                     !isWordChar(code[i + 5]))) {
                    i += 5;
                    continue;
                }
                break;
            }
            std::size_t start = i;
            while (i < code.size() && isWordChar(code[i]))
                ++i;
            if (i > start)
                names.insert(code.substr(start, i - start));
        }
    }
    return names;
}

void
lintUnorderedIteration(const std::string &path, const std::string &code,
                       std::vector<Finding> &findings)
{
    const std::set<std::string> names = unorderedNames(code);
    for (const std::string &name : names) {
        std::size_t pos = 0;
        while ((pos = findWord(code, name, pos)) !=
               std::string::npos) {
            const std::size_t at = pos;
            pos += 1;
            // Range-for: "... : name)" — look back past whitespace
            // for ':' that is not part of "::".
            std::size_t back = at;
            while (back > 0 && std::isspace(static_cast<unsigned char>(
                                   code[back - 1])))
                --back;
            const bool rangeFor =
                back > 0 && code[back - 1] == ':' &&
                (back < 2 || code[back - 2] != ':');
            // Explicit iteration: "name.begin(" / "name.cbegin(".
            std::size_t fwd = skipWs(code, at + name.size());
            bool beginCall = false;
            if (fwd < code.size() && code[fwd] == '.') {
                const std::size_t m = skipWs(code, fwd + 1);
                beginCall = code.compare(m, 6, "begin(") == 0 ||
                            code.compare(m, 7, "cbegin(") == 0;
            }
            if (rangeFor || beginCall) {
                findings.push_back(
                    {path, lineOfOffset(code, at),
                     "unordered-iteration",
                     "iterating '" + name +
                         "' visits hash order, which varies across "
                         "standard libraries; iterate a sorted or "
                         "insertion-ordered structure instead"});
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: uninit-config-field
// ---------------------------------------------------------------------

void
lintConfigStructs(const std::string &path, const std::string &code,
                  std::vector<Finding> &findings)
{
    std::size_t pos = 0;
    while ((pos = findWord(code, "struct", pos)) !=
           std::string::npos) {
        std::size_t i = skipWs(code, pos + 6);
        pos += 1;
        std::size_t nameStart = i;
        while (i < code.size() && isWordChar(code[i]))
            ++i;
        const std::string name =
            code.substr(nameStart, i - nameStart);
        const bool isConfig =
            name.size() > 6 &&
            name.compare(name.size() - 6, 6, "Config") == 0;
        const bool isKnobs =
            name.size() > 5 &&
            name.compare(name.size() - 5, 5, "Knobs") == 0;
        if (!isConfig && !isKnobs)
            continue;
        i = skipWs(code, i);
        if (i >= code.size() || code[i] != '{')
            continue; // forward declaration
        // Walk the body at depth 1, one ';'-terminated declaration
        // at a time. Anything with parens is a function/constructor
        // and exempt; everything else must carry '=' or a brace
        // initializer.
        int depth = 0;
        std::size_t declStart = i + 1;
        bool declHasInit = false;
        bool declHasParen = false;
        for (; i < code.size(); ++i) {
            const char c = code[i];
            if (c == '{' || c == '(') {
                if (depth == 1 && c == '{')
                    declHasInit = true;
                if (depth == 1 && c == '(')
                    declHasParen = true;
                ++depth;
            } else if (c == '}' || c == ')') {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && c == '=') {
                declHasInit = true;
            } else if (depth == 1 && c == ';') {
                const std::string decl =
                    code.substr(declStart, i - declStart);
                // A field declaration mentions at least two words
                // (type and name); "using x = y;" was caught by '='
                // and access specifiers carry ':'.
                std::istringstream ds(decl);
                std::string w1, w2;
                ds >> w1 >> w2;
                const bool looksLikeField =
                    !w2.empty() && w1 != "using" && w1 != "typedef" &&
                    w1 != "friend" && w1 != "static" &&
                    decl.find(':') == std::string::npos;
                if (looksLikeField && !declHasInit && !declHasParen) {
                    findings.push_back(
                        {path, lineOfOffset(code, declStart),
                         "uninit-config-field",
                         "field of " + name +
                             " has no default initializer (aggregate "
                             "Config structs must zero every field)"});
                }
                declStart = i + 1;
                declHasInit = false;
                declHasParen = false;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: missing-mutator-assert
// ---------------------------------------------------------------------

constexpr const char *kMutatorFiles[] = {
    "pool.hh",
    "cycle_list.hh",
    "circular_queue.hh",
};

constexpr const char *kMutators[] = {
    "allocate", "free", "push", "pop", "pruneUpTo", "truncate",
};

void
lintMutatorAsserts(const std::string &path, const std::string &code,
                   std::vector<Finding> &findings)
{
    const std::string base = fs::path(path).filename().string();
    if (std::none_of(std::begin(kMutatorFiles),
                     std::end(kMutatorFiles),
                     [&](const char *f) { return base == f; }))
        return;
    for (const char *name : kMutators) {
        std::size_t pos = 0;
        while ((pos = findWord(code, name, pos)) !=
               std::string::npos) {
            const std::size_t at = pos;
            pos += 1;
            std::size_t i = skipWs(code, at + std::strlen(name));
            if (i >= code.size() || code[i] != '(')
                continue;
            // Match the parameter list, then require a '{' (after
            // qualifiers) so declarations and call sites are skipped.
            int depth = 0;
            for (; i < code.size(); ++i) {
                if (code[i] == '(')
                    ++depth;
                else if (code[i] == ')' && --depth == 0) {
                    ++i;
                    break;
                }
            }
            std::size_t bodyStart = code.find('{', i);
            const std::size_t stop = code.find(';', i);
            if (bodyStart == std::string::npos ||
                (stop != std::string::npos && stop < bodyStart))
                continue;
            int bdepth = 0;
            std::size_t j = bodyStart;
            for (; j < code.size(); ++j) {
                if (code[j] == '{')
                    ++bdepth;
                else if (code[j] == '}' && --bdepth == 0) {
                    ++j;
                    break;
                }
            }
            const std::string body =
                code.substr(bodyStart, j - bodyStart);
            if (body.find("SIM_ASSERT") == std::string::npos &&
                body.find("SIM_AUDIT") == std::string::npos) {
                findings.push_back(
                    {path, lineOfOffset(code, at),
                     "missing-mutator-assert",
                     std::string("mutator '") + name +
                         "' of a ring/pool structure checks no "
                         "invariant (add SIM_ASSERT or SIM_AUDIT)"});
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: snapshot-fields
// ---------------------------------------------------------------------

/**
 * A class or struct that declares a fields() member (the snapshot
 * visitor) or a hand-written save*() codec participates in the
 * snapshot system, so it must carry a SIM_SNAPSHOT_FIELDS(N)
 * annotation with N equal to the number of data members declared
 * directly in its body — host-only members included, because the
 * annotation exists to force every new member through a snapshot
 * review (visit it in fields(), or document why not). Nested types,
 * static members, using/typedef aliases and friends do not count.
 */
void
lintSnapshotFields(const std::string &path, const std::string &code,
                   std::vector<Finding> &findings)
{
    for (const char *kw : {"class", "struct"}) {
        std::size_t pos = 0;
        while ((pos = findWord(code, kw, pos)) !=
               std::string::npos) {
            const std::size_t kwAt = pos;
            pos += 1;
            // "enum class" / "enum struct" declare enumerations.
            std::size_t back = kwAt;
            while (back > 0 &&
                   std::isspace(static_cast<unsigned char>(
                       code[back - 1])))
                --back;
            if (back >= 4 &&
                code.compare(back - 4, 4, "enum") == 0 &&
                (back == 4 || !isWordChar(code[back - 5])))
                continue;
            std::size_t i = skipWs(code, kwAt + std::strlen(kw));
            const std::size_t nameStart = i;
            while (i < code.size() && isWordChar(code[i]))
                ++i;
            const std::string name =
                code.substr(nameStart, i - nameStart);
            // Find the body's '{', skipping a base clause; bail on
            // forward declarations and template parameters.
            i = skipWs(code, i);
            if (i < code.size() && code[i] == ':') {
                while (i < code.size() && code[i] != '{' &&
                       code[i] != ';')
                    ++i;
            }
            if (i >= code.size() || code[i] != '{')
                continue;

            // Walk the body one direct declaration at a time.
            // Parenthesized and braced sub-scopes (parameter lists,
            // function bodies, nested type bodies, brace
            // initializers) are absorbed whole, so ';' and ':' only
            // act at the class's own depth.
            std::string decl;
            bool funcMarker = false; //!< decl is a function
            bool sawInit = false;    //!< '=' seen before any '('
            std::string funcName;
            bool snapshotted = false;
            unsigned fields = 0;
            long annot = -1;
            std::size_t annotAt = kwAt;

            auto resetDecl = [&] {
                decl.clear();
                funcMarker = false;
                sawInit = false;
                funcName.clear();
            };
            auto lastWord = [&]() {
                std::size_t e = decl.size();
                while (e > 0 &&
                       std::isspace(static_cast<unsigned char>(
                           decl[e - 1])))
                    --e;
                std::size_t s = e;
                while (s > 0 && isWordChar(decl[s - 1]))
                    --s;
                return decl.substr(s, e - s);
            };
            auto trimmedDecl = [&]() {
                std::size_t s = 0;
                while (s < decl.size() &&
                       std::isspace(static_cast<unsigned char>(
                           decl[s])))
                    ++s;
                return decl.substr(s);
            };
            auto classify = [&](std::size_t at) {
                const std::string d = trimmedDecl();
                if (d.empty()) {
                    resetDecl();
                    return;
                }
                std::istringstream ds(d);
                std::string w1, w2;
                ds >> w1 >> w2;
                if (w1.rfind("SIM_SNAPSHOT_FIELDS", 0) == 0) {
                    const std::size_t p = d.find('(');
                    if (p != std::string::npos)
                        annot = std::atol(d.c_str() + p + 1);
                    annotAt = at;
                } else if (funcMarker) {
                    if (funcName == "fields" ||
                        funcName.rfind("save", 0) == 0)
                        snapshotted = true;
                } else if (!w2.empty() && w1 != "using" &&
                           w1 != "typedef" && w1 != "friend" &&
                           w1 != "static" && w1 != "struct" &&
                           w1 != "class" && w1 != "enum" &&
                           w1 != "template") {
                    ++fields;
                }
                resetDecl();
            };
            auto absorb = [&](std::size_t &j, char open, char close) {
                const std::size_t from = j;
                int depth = 0;
                for (; j < code.size(); ++j) {
                    if (code[j] == open)
                        ++depth;
                    else if (code[j] == close && --depth == 0)
                        break;
                }
                decl += code.substr(from,
                                    j < code.size() ? j - from + 1
                                                    : j - from);
            };

            std::size_t j = i + 1;
            for (; j < code.size(); ++j) {
                const char c = code[j];
                if (c == '(') {
                    if (!sawInit && !funcMarker) {
                        funcMarker = true;
                        funcName = lastWord();
                    }
                    absorb(j, '(', ')');
                } else if (c == '{') {
                    if (funcMarker) {
                        absorb(j, '{', '}');
                        classify(j);
                    } else {
                        absorb(j, '{', '}');
                    }
                } else if (c == '}') {
                    break; // end of this class body
                } else if (c == ';') {
                    classify(j);
                } else if (c == ':') {
                    const std::string d = trimmedDecl();
                    if (d == "public" || d == "private" ||
                        d == "protected")
                        resetDecl();
                    else
                        decl += c;
                } else {
                    if (c == '=' && !funcMarker) {
                        // "operator=" is a function, not a default
                        // member initializer.
                        if (lastWord() == "operator") {
                            funcMarker = true;
                            funcName = "operator=";
                        } else {
                            sawInit = true;
                        }
                    }
                    decl += c;
                }
            }

            if (!snapshotted)
                continue;
            if (annot < 0) {
                findings.push_back(
                    {path, lineOfOffset(code, kwAt),
                     "snapshot-fields",
                     "'" + name +
                         "' declares a snapshot visitor but no "
                         "SIM_SNAPSHOT_FIELDS annotation (it has " +
                         std::to_string(fields) +
                         " data member(s))"});
            } else if (annot != static_cast<long>(fields)) {
                findings.push_back(
                    {path, lineOfOffset(code, annotAt),
                     "snapshot-fields",
                     "'" + name + "' annotates SIM_SNAPSHOT_FIELDS(" +
                         std::to_string(annot) + ") but declares " +
                         std::to_string(fields) +
                         " data member(s); re-review its fields() "
                         "visitor and update the count"});
            }
        }
    }
}

// ---------------------------------------------------------------------

std::vector<AllowEntry>
loadAllowlist(const std::string &path)
{
    std::vector<AllowEntry> entries;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "lint_sim: cannot read allowlist %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        AllowEntry e;
        if (ls >> e.rule >> e.pathSuffix)
            entries.push_back(std::move(e));
    }
    return entries;
}

bool
allowed(const Finding &f, const std::vector<AllowEntry> &allow)
{
    const std::string norm =
        fs::path(f.path).lexically_normal().generic_string();
    for (const AllowEntry &e : allow) {
        if (e.rule != f.rule && e.rule != "*")
            continue;
        if (norm.size() >= e.pathSuffix.size() &&
            norm.compare(norm.size() - e.pathSuffix.size(),
                         e.pathSuffix.size(), e.pathSuffix) == 0)
            return true;
    }
    return false;
}

void
lintFile(const fs::path &path, std::vector<Finding> &findings)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "lint_sim: cannot read %s\n",
                     path.string().c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string code = stripCommentsAndStrings(buf.str());
    const std::string p = path.generic_string();
    lintBannedCalls(p, code, findings);
    lintUnorderedIteration(p, code, findings);
    lintConfigStructs(p, code, findings);
    lintMutatorAsserts(p, code, findings);
    lintSnapshotFields(p, code, findings);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string allowlistPath;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--allowlist") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "lint_sim: --allowlist needs a file\n");
                return 2;
            }
            allowlistPath = argv[i];
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("usage: lint_sim [--allowlist FILE] "
                        "DIR_OR_FILE...\n");
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "lint_sim: unknown flag '%s'\n", arg);
            return 2;
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty()) {
        std::fprintf(stderr,
                     "usage: lint_sim [--allowlist FILE] "
                     "DIR_OR_FILE...\n");
        return 2;
    }

    std::vector<AllowEntry> allow;
    if (!allowlistPath.empty())
        allow = loadAllowlist(allowlistPath);

    std::vector<fs::path> files;
    for (const std::string &root : roots) {
        if (fs::is_regular_file(root)) {
            files.emplace_back(root);
            continue;
        }
        if (!fs::is_directory(root)) {
            std::fprintf(stderr, "lint_sim: no such path: %s\n",
                         root.c_str());
            return 2;
        }
        for (const auto &entry :
             fs::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
                ext == ".cpp" || ext == ".h")
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<Finding> findings;
    for (const fs::path &f : files)
        lintFile(f, findings);

    unsigned reported = 0;
    unsigned suppressed = 0;
    for (const Finding &f : findings) {
        if (allowed(f, allow)) {
            ++suppressed;
            continue;
        }
        std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
        ++reported;
    }
    std::printf("lint_sim: %zu file(s), %u finding(s), "
                "%u allowlisted\n",
                files.size(), reported, suppressed);
    return reported > 0 ? 1 : 0;
}

#!/usr/bin/env python3
"""Print every value a lib/*/*.mli exports that no other module's code
calls, and exit 1 if there is any.

Run from anywhere: python3 test/check_exports.py

Code means the .ml files under lib, bin, bench and examples; tests do not
count.  Comments, string literals and character literals are stripped
first.  A value counts as called when code names it, other than where it
is defined, in one of three ways:

  - qualified, by a module path that resolves to its module
    (Wave.value_at, Waveform.Wave.value_at, Runtime.Cache.Key.make);
  - unqualified, inside the scope of an open of its module
    (open M, let open M in, M.( ... ), M.[ ... ], M.{ ... });
  - through a module alias (module W = Waveform.Wave, then W.value_at).

Uses inside the value's own .ml do not count: a value only its own
module calls need not be exported.  A module nested in that file
(module M = struct ... end) is a module of its own, so the enclosing
code's uses of M's values count.  A word that merely matches the name in
a comment or in an unrelated module is not a call either.

SEAMS names the few exports kept only because a unit test pins them
directly, each with the test's use.  A seam that gains a caller, or
whose export goes away, is reported too, so the list stays exact.

A module path resolves through the file's aliases and opens, its own
library's sibling modules and the wrapped library names, innermost scope
first.  A module the file defines itself (module M = struct ... end)
shadows any library module of that name.  Scopes are taken as brackets
show them: an open inside ( ), [ ], { }, begin/struct/sig ... end or
do ... done ends with its bracket, a let open or let module at the top
level ends at the next top-level item, and a top-level open runs to the
end of the file.  That can only widen a scope, so the scan may miss a
dead export but does not flag a called one.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE_DIRS = ("lib", "bin", "bench", "examples")

SEAMS = {
    "Awe.step_response": "AWE step response against the transient engine",
    "Characterize.default_grid": "full-span reference tables on the default grid",
    "Coupled.victim_coupling_per_boundary": "coupling split per line boundary",
    "Engine.accurate": "pinned preset cache keys",
    "Fuzz.run_one": "each fuzz-corpus payload replayed",
    "Journal.encode_admit": "hostile journals built record by record",
    "Journal.magic": "hostile journals built record by record",
    "Ladder.make": "ladder validation and custom rung orders",
    "Libfile.of_string": "Liberty round trip and parse errors without files",
    "Libfile.to_string": "Liberty round trip without files",
    "Listener.drain_s": "shutdown bounded by the drain time",
    "Netlist_io.of_string": "netlist round trip and parse errors without files",
    "Nldm.lookup": "bilinear interpolation and clamping",
    "Pool.map": "in-order results, chunking and reuse after a failed map",
    "Process.scale_corner": "corner scaling on a custom corner",
    "Propagate.net_load": "lumped load of a net",
    "Propagate.wire_delay": "wire delay of a line-loaded net",
    "Wave.crossings": "every crossing of a multi-crossing wave",
    "Worst_case.delay_at": "search result against the delay at its alignment",
}

UIDENT = re.compile(r"[A-Z][A-Za-z0-9_']*")
LIDENT = re.compile(r"[a-z_][A-Za-z0-9_']*")
TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_']*"  # identifiers and keywords
    r"|\[\||\|\]"  # array brackets
    r"|[~?](?=[a-z_])"  # label marks
    r"|[!$%&*+\-/:<=>?@^|~][!$%&*+\-./:<=>?@^|~]*"  # operators (*. is not a path dot)
    r"|\S"  # anything else, one character at a time
)
OPENERS = {"(", "[", "[|", "{", "begin", "struct", "sig", "object", "do"}
CLOSERS = {")", "]", "|]", "}", "end", "done"}
TOP_ITEMS = {"let", "and", "type", "module", "open", "include", "exception",
             "external", "class"}
# A lowercase name after one of these is a field, label, type variable,
# variant, method or definition, not a use of a value.
NOT_A_USE = {".", "~", "?", "`", "#", "'", "let", "rec", "and", "val",
             "external"}


def strip(text):
    """Blank out comments, string and character literals, keeping line
    breaks and columns so that top-level items stay at column 0."""
    out = []
    i, n = 0, len(text)

    def blank(s):
        out.append(re.sub(r"[^\n]", " ", s))

    def string_end(j):
        # j points just past the opening quote
        while j < n:
            c = text[j]
            if c == "\\":
                j += 2
            elif c == '"':
                return j + 1
            else:
                j += 1
        return n

    def quoted_end(j):
        # {id|...|id}; j points at '{'
        m = re.match(r"\{([a-z_]*)\|", text[j:])
        close = "|" + m.group(1) + "}"
        k = text.find(close, j + len(m.group(0)))
        return n if k < 0 else k + len(close)

    def comment_end(j):
        # j points just past the opening "(*"; comments nest and lex
        # string literals inside them
        depth = 1
        while j < n and depth:
            if text.startswith("(*", j):
                depth += 1
                j += 2
            elif text.startswith("*)", j):
                depth -= 1
                j += 2
            elif text[j] == '"':
                j = string_end(j + 1)
            else:
                j += 1
        return j

    char_lit = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
    while i < n:
        c = text[i]
        if text.startswith("(*", i) and not text.startswith("(*)", i):
            j = comment_end(i + 2)
            blank(text[i:j])
            i = j
        elif c == '"':
            j = string_end(i + 1)
            blank(text[i:j])
            i = j
        elif c == "{" and re.match(r"\{[a-z_]*\|", text[i:]):
            j = quoted_end(i)
            blank(text[i:j])
            i = j
        elif c == "'" and (i == 0 or not re.match(r"[A-Za-z0-9_']", text[i - 1])):
            m = char_lit.match(text, i)
            if m:
                blank(m.group(0))
                i = m.end()
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokens(text):
    """(token, line, column) for every token of stripped source."""
    toks = []
    for lineno, line in enumerate(text.split("\n")):
        for m in TOKEN.finditer(line):
            toks.append((m.group(0), lineno, m.start()))
    return toks


class Module:
    def __init__(self, path):
        self.path = path  # e.g. ("Runtime", "Cache", "Key")
        self.children = {}
        self.values = {}  # name -> (mli file, line)

    def child(self, name):
        if name not in self.children:
            self.children[name] = Module(self.path + (name,))
        return self.children[name]


def read_interfaces(root_mod):
    """Record every [val] and [external] of lib/*/*.mli, with nested
    [module X : sig ... end] signatures."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(ROOT, "lib"))):
        libdir = os.path.join(ROOT, "lib", d)
        dune = os.path.join(libdir, "dune")
        if not os.path.isfile(dune):
            continue
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", open(dune).read())
        lib = root_mod.child(m.group(1).capitalize())
        libs[os.path.relpath(libdir, ROOT)] = lib
        for f in sorted(os.listdir(libdir)):
            if not f.endswith(".mli"):
                continue
            mod = lib.child(f[:-4].capitalize())
            rel = os.path.join("lib", d, f)
            toks = tokens(strip(open(os.path.join(libdir, f)).read()))
            stack = [mod]  # one entry per open bracket; None = not a signature
            pending = None  # module name awaiting its "sig"
            for k, (t, line, _) in enumerate(toks):
                nxt = toks[k + 1][0] if k + 1 < len(toks) else ""
                if t == "module" and UIDENT.fullmatch(nxt):
                    pending = nxt
                elif t in OPENERS:
                    if t == "sig" and pending:
                        cur = stack[-1]
                        stack.append(cur.child(pending) if cur else None)
                    else:
                        stack.append(None if t == "sig" else stack[-1])
                    pending = None
                elif t in CLOSERS:
                    stack.pop()
                elif t in ("val", "external") and LIDENT.fullmatch(nxt) and stack[-1]:
                    stack[-1].values.setdefault(nxt, (rel, line + 1))
        # A library with a module of its own name is that module
        # (faultplan): code names it Faultplan, not Faultplan.Faultplan.
        main_mod = lib.children.get(lib.path[0])
        if main_mod is not None:
            root_mod.children[lib.path[0]] = main_mod
    return libs


def scan_file(path, root_mod, libs, used):
    """Add to [used] every exported value [path] calls."""
    lib = libs.get(os.path.relpath(os.path.dirname(path), ROOT))
    own = lib.children.get(os.path.basename(path)[:-3].capitalize()) if lib else None
    toks = tokens(strip(open(path).read()))

    # Outermost names: the wrapped libraries, then this directory's
    # modules (a library sibling resolves to its interface; an
    # executable's own modules shadow everything).
    base = dict(root_mod.children)
    for f in os.listdir(os.path.dirname(path)):
        if f.endswith(".ml"):
            name = f[:-3].capitalize()
            base[name] = lib.children.get(name) if lib else None
    # Scoped entries, innermost last: (depth, kind, name, module). A
    # None name opens the module; otherwise the entry binds the name to
    # it (None for a module this file defines).
    env = []
    depth = 0
    struct_of = None  # module whose "struct" comes next

    def resolve(names):
        target = base.get(names[0])
        for _, _, name, m in reversed(env):
            if name == names[0]:
                target = m
                break
            if name is None and names[0] in m.children:
                target = m.children[names[0]]
                break
        for r in names[1:]:
            target = target.children.get(r) if target else None
        return target

    def mark(m, v):
        if m is not None and v in m.values:
            used.add(m.path + (v,))

    def read_path(k):
        """Module path starting at token k: (names, index after)."""
        names = [toks[k][0]]
        j = k + 1
        while j + 1 < len(toks) and toks[j][0] == "." and UIDENT.fullmatch(toks[j + 1][0]):
            names.append(toks[j + 1][0])
            j += 2
        return names, j

    k, n = 0, len(toks)
    while k < n:
        t, _, col = toks[k]
        prev = toks[k - 1][0] if k else ""
        kind = "let" if prev == "let" else "open"
        if col == 0 and depth == 0 and t in TOP_ITEMS:
            # a top-level item ends every top-level let open / let module
            env[:] = [e for e in env if e[0] > 0 or e[1] != "let"]
        if t in OPENERS:
            depth += 1
            if t == "struct" and struct_of is not None:
                env.append((depth, "open", None, struct_of))
            struct_of = None
            k += 1
        elif t in CLOSERS:
            depth = max(0, depth - 1)
            env[:] = [e for e in env if e[0] <= depth]
            k += 1
        elif t in ("open", "include") and k + 1 < n and UIDENT.fullmatch(toks[k + 1][0]):
            names, k = read_path(k + 1)
            m = resolve(names)
            if m is not None:
                env.append((depth, kind, None, m))
        elif t == "module" and k + 2 < n and UIDENT.fullmatch(toks[k + 1][0]):
            name = toks[k + 1][0]
            if toks[k + 2][0] == "=" and k + 3 < n and UIDENT.fullmatch(toks[k + 3][0]):
                names, j = read_path(k + 3)
                # an alias, unless it applies a functor
                target = None if j < n and toks[j][0] == "(" else resolve(names)
                env.append((depth, kind, name, target))
                k = j
            else:
                # module M = struct ... end and the like: a module of
                # this file, which is part of [own] in [own]'s file
                struct_of = own.children.get(name) if own else None
                env.append((depth, kind, name, struct_of))
                k += 2
        elif UIDENT.fullmatch(t) and prev != ".":
            names, j = read_path(k)
            after = toks[j + 1][0] if j + 1 < n and toks[j][0] == "." else ""
            if LIDENT.fullmatch(after):
                mark(resolve(names), after)
                k = j + 2
            elif after in ("(", "[", "[|", "{"):
                depth += 1
                m = resolve(names)
                if m is not None:
                    env.append((depth, "open", None, m))
                k = j + 2
            else:
                k = j
        else:
            if LIDENT.fullmatch(t) and prev not in NOT_A_USE:
                mark(next((m for _, _, name, m in reversed(env)
                           if name is None and t in m.values), None), t)
            k += 1


def main():
    root_mod = Module(())
    libs = read_interfaces(root_mod)
    used = set()
    for d in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(x for x in dirnames if not x.startswith(("_", ".")))
            for f in sorted(filenames):
                if f.endswith(".ml"):
                    scan_file(os.path.join(dirpath, f), root_mod, libs, used)

    unused = []

    def walk(m):
        for v, (rel, line) in sorted(m.values.items()):
            full = m.path + (v,)
            if full not in used:
                unused.append((rel, line, ".".join(full[1:])))
        for c in m.children.values():
            walk(c)

    walk(root_mod)
    flagged = [u for u in sorted(unused) if u[2] not in SEAMS]
    for rel, line, name in flagged:
        print(f"{rel}:{line}: {name}")
    stale = sorted(set(SEAMS) - {name for _, _, name in unused})
    for name in stale:
        print(f"test/check_exports.py: seam {name} has a caller or is gone")
    return 1 if flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())

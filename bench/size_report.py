#!/usr/bin/env python3
"""Print the size of src/: code lines per module and settable config fields.

    python3 bench/size_report.py [ROOT]

ROOT defaults to the repository this script lives in. Prints, for every
module under src/birp/, its non-blank, non-comment lines (a line counts
unless it is blank or holds only a `//` comment: the same rule as
`cat src/birp/*/*.cpp src/birp/*/*.hpp | grep -vE '^\\s*(//.*)?$' | wc -l`),
then the total, then the settable config fields.

A settable config field is a data member of a struct named *Config or
*Options in a src/ header. Each is counted once, where its struct is
defined: a member whose type is itself one of those structs (BirpConfig's
`solver`, say) is not a field, since its struct's own members are. Static
members, constants, type aliases and member functions are not fields.
Only prints; the exit status is 0 unless ROOT has no src/birp.
"""

import glob
import os
import re
import sys

CODE_LINE = re.compile(r"^\s*(//.*)?$")
CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w+(?:Config|Options))\s*\{")
NOT_A_FIELD = re.compile(
    r"^(static|constexpr|using|typedef|friend|enum|struct|class|template)\b")


def code_lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if not CODE_LINE.match(line))


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def struct_body(text, open_brace):
    """The text between the brace at open_brace and its match."""
    depth = 0
    for pos in range(open_brace, len(text)):
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:pos]
    raise ValueError("unbalanced braces")


def statements(body):
    """Top-level declarations of a struct body; function bodies dropped."""
    out = []
    current = ""
    depth = 0
    for ch in body:
        current += ch
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
            head = current[:current.find("{")] if "{" in current else ""
            if (ch == "}" and depth == 0 and
                    re.search(r"\)[\s\w]*$", head)):  # a member function
                current = ""
        elif ch == ";" and depth == 0:
            out.append(" ".join(current[:-1].split()))
            current = ""
    return out


def field_type(statement):
    """The declared type of a data member, or None for anything else."""
    statement = re.sub(r"^(public|private|protected)\s*:\s*", "", statement)
    statement = re.sub(r"^\[\[[^\]]*\]\]\s*", "", statement)
    if not statement or NOT_A_FIELD.match(statement):
        return None
    declarator = re.split(r"[={]", statement, maxsplit=1)[0].strip()
    if declarator.endswith(")") or "(" in declarator:
        return None  # a member function or a constructor
    match = re.match(r"(.*?)\s*\b(\w+)$", declarator)
    return match.group(1) if match and match.group(1) else None


def config_fields(src):
    structs = {}
    for path in sorted(glob.glob(os.path.join(src, "birp", "*", "*.hpp"))):
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        for match in CONFIG_STRUCT.finditer(text):
            body = struct_body(text, match.end() - 1)
            types = [field_type(s) for s in statements(body)]
            structs[match.group(1)] = [t for t in types if t is not None]
    counts = {}
    for name, types in structs.items():
        counts[name] = sum(
            1 for t in types
            if re.sub(r"^.*::", "", t.split()[-1]) not in structs)
    return counts


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    modules = sorted(
        d for d in glob.glob(os.path.join(src, "birp", "*")) if os.path.isdir(d))
    if not modules:
        print(f"no modules under {src}/birp", file=sys.stderr)
        return 1
    total = 0
    print("module       lines")
    for module in modules:
        files = glob.glob(os.path.join(module, "*.cpp")) + glob.glob(
            os.path.join(module, "*.hpp"))
        lines = sum(code_lines(f) for f in files)
        total += lines
        print(f"{os.path.basename(module):<12} {lines:>5}")
    print(f"{'src/ total':<12} {total:>5}")
    counts = config_fields(src)
    print()
    print("config struct                 fields")
    for name in sorted(counts):
        print(f"{name:<29} {counts[name]:>6}")
    print(f"{'settable config fields':<29} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

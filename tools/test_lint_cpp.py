#!/usr/bin/env python3
"""Unit tests for tools/lint_cpp.py: per-rule trigger, near-miss and
waiver-canary cases, plus regressions for the comment/string stripper
(rules must not fire on prose inside comments or string literals).

Run directly (python3 tools/test_lint_cpp.py) or through ctest
(lint_cpp_unit_tests).
"""
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import lint_cpp  # noqa: E402


def lint_src(code: str, *, header: bool = False,
             in_library: bool = True) -> list[str]:
    """Lints a snippet as a library source (or header) file; returns rule
    ids of the violations found."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("snippet.hpp" if header else "snippet.cpp")
        if header and "#pragma once" not in code:
            code = "#pragma once\n" + code
        path.write_text(code, encoding="utf-8")
        return [v.rule for v in lint_cpp.lint_file(path, in_library)]


class StripViewsTest(unittest.TestCase):
    def test_line_comment_is_blanked(self):
        code, _ = lint_cpp.source_views("int x;  // std::cout << x;\n")
        self.assertNotIn("cout", code[0])
        self.assertIn("int x;", code[0])

    def test_block_comment_spans_lines(self):
        text = "int a;\n/* rand()\n   rand() */ int b;\n"
        code, _ = lint_cpp.source_views(text)
        self.assertNotIn("rand", "".join(code))
        self.assertIn("int b;", code[2])

    def test_string_contents_blanked_in_code_view(self):
        code, nocomment = lint_cpp.source_views(
            'const char* s = "std::cout is banned";\n')
        self.assertNotIn("cout", code[0])
        self.assertIn("cout", nocomment[0])  # literals survive there

    def test_escaped_quote_does_not_end_string(self):
        code, _ = lint_cpp.source_views('auto s = "a\\"b rand() c"; f();\n')
        self.assertNotIn("rand", code[0])
        self.assertIn("f();", code[0])

    def test_char_literal_blanked_but_digit_separator_kept(self):
        code, _ = lint_cpp.source_views("char c = ';'; int n = 1'000'000;\n")
        self.assertIn("1'000'000", code[0])
        self.assertNotIn("= ';';", code[0].replace("char c =  ' ' ;", ""))

    def test_raw_string_blanked_in_code_view(self):
        code, _ = lint_cpp.source_views(
            'auto s = R"(getenv("HOME") rand())"; g();\n')
        self.assertNotIn("rand", code[0])
        self.assertNotIn("getenv", code[0])
        self.assertIn("g();", code[0])

    def test_views_preserve_line_count_and_columns(self):
        text = 'int a; /* x */ int b = 1; // tail\n"s";\n'
        code, nocomment = lint_cpp.source_views(text)
        raw = text.splitlines()
        self.assertEqual(len(code), len(raw) + 1)  # trailing empty line
        for view in (code, nocomment):
            for i, line in enumerate(raw):
                self.assertEqual(len(view[i]), len(line))
        self.assertEqual(code[0].index("int b"), text.index("int b"))


class ConvRulesTest(unittest.TestCase):
    def test_conv1_trigger_and_comment_near_miss(self):
        self.assertIn("CONV-1", lint_src("int f() { return rand(); }\n"))
        self.assertEqual([], lint_src("int f();  // uses rand() internally\n"))

    def test_conv2_trigger_and_string_near_miss(self):
        self.assertIn("CONV-2", lint_src('void f() { std::cout << 1; }\n'))
        # The historical false positive: "std::cout" inside a literal.
        self.assertEqual(
            [], lint_src('const char* kDoc = "never use std::cout";\n'))

    def test_conv2_does_not_apply_outside_library(self):
        self.assertEqual(
            [], lint_src("void f() { std::cout << 1; }\n", in_library=False))

    def test_conv3_header_without_pragma_once(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.hpp"
            path.write_text("int x;\n", encoding="utf-8")
            rules = [v.rule for v in lint_cpp.lint_file(path, True)]
        self.assertIn("CONV-3", rules)

    def test_conv4_trigger_and_comment_near_miss(self):
        self.assertIn("CONV-4",
                      lint_src("using namespace std;\n", header=True))
        self.assertEqual(
            [], lint_src("// using namespace std; (never do this)\n",
                         header=True))

    def test_conv5_trigger_zero_allowed_and_waiver(self):
        self.assertIn("CONV-5", lint_src("bool f(double x) { return x == 1.5; }\n"))
        self.assertEqual([], lint_src("bool f(double x) { return x == 0.0; }\n"))
        self.assertEqual(
            [], lint_src("bool f(double x) { return x == 1.5; }"
                         "  // conv-ok: CONV-5\n"))

    def test_conv6_trigger_and_member_near_miss(self):
        self.assertIn("CONV-6", lint_src("void f(int n) { assert(n > 0); }\n"))
        self.assertEqual([], lint_src("void f() { model.assert_valid(); }\n"))
        self.assertEqual([], lint_src("void f() { self.assert(1); }\n"))


class Det1Test(unittest.TestCase):
    def test_trigger(self):
        self.assertIn("DET-1",
                      lint_src("std::random_device rd; auto s = rd();\n"))

    def test_near_miss_identifier_and_comment(self):
        self.assertEqual([], lint_src("int my_random_device_count = 0;\n"))
        self.assertEqual([], lint_src("// std::random_device is banned\n"))

    def test_waiver_canary(self):
        bad = "std::random_device rd;\n"
        self.assertIn("DET-1", lint_src(bad))
        self.assertEqual(
            [], lint_src("std::random_device rd;  // conv-ok: DET-1\n"))

    def test_out_of_scope_in_tests(self):
        self.assertEqual([], lint_src("std::random_device rd;\n",
                                      in_library=False))


class Det2Test(unittest.TestCase):
    def test_trigger_system_clock(self):
        self.assertIn("DET-2", lint_src(
            "auto t = std::chrono::system_clock::now();\n"))

    def test_trigger_time_nullptr(self):
        self.assertIn("DET-2", lint_src("auto t = std::time(nullptr);\n"))
        self.assertIn("DET-2", lint_src("long t = time(0);\n"))

    def test_near_miss_steady_clock(self):
        # steady_clock is the provenance-duration clock and stays legal.
        self.assertEqual([], lint_src(
            "auto t = std::chrono::steady_clock::now();\n"))

    def test_near_miss_identifiers(self):
        self.assertEqual([], lint_src("double elapsed_time(int x);\n"))
        self.assertEqual([], lint_src("double t = sim.time();\n"))

    def test_waiver_canary(self):
        self.assertEqual([], lint_src(
            "auto t = std::chrono::system_clock::now();  // conv-ok: DET-2\n"))


class Det3Test(unittest.TestCase):
    def test_trigger(self):
        self.assertIn("DET-3",
                      lint_src('const char* v = std::getenv("HOME");\n'))
        self.assertIn("DET-3", lint_src('const char* v = getenv("HOME");\n'))

    def test_near_miss_identifier_and_string(self):
        self.assertEqual([], lint_src("int cpm_getenv_calls = 0;\n"))
        self.assertEqual([], lint_src('const char* kDoc = "getenv(HOME)";\n'))

    def test_waiver_canary(self):
        self.assertEqual([], lint_src(
            'const char* v = std::getenv("X");  // conv-ok: DET-3\n'))

    def test_out_of_scope_in_tools(self):
        self.assertEqual([], lint_src('const char* v = getenv("HOME");\n',
                                      in_library=False))


class Det4Test(unittest.TestCase):
    DECL = "std::unordered_map<std::string, double> totals;\n"

    def test_trigger_range_for(self):
        code = self.DECL + "void f() { for (const auto& kv : totals) {} }\n"
        self.assertIn("DET-4", lint_src(code))

    def test_trigger_begin_iterator(self):
        code = self.DECL + "auto it = totals.begin();\n"
        self.assertIn("DET-4", lint_src(code))

    def test_trigger_unordered_set(self):
        code = ("std::unordered_set<int> seen;\n"
                "void f() { for (int v : seen) {} }\n")
        self.assertIn("DET-4", lint_src(code))

    def test_near_miss_insert_and_lookup_only(self):
        # The replication-seeds pattern: insert/count but never iterate.
        code = (self.DECL +
                "void f() { totals.emplace(\"a\", 1.0); totals.count(\"a\"); }\n")
        self.assertEqual([], lint_src(code))

    def test_near_miss_ordered_map(self):
        code = ("std::map<std::string, double> totals;\n"
                "void f() { for (const auto& kv : totals) {} }\n")
        self.assertEqual([], lint_src(code))

    def test_waiver_canary(self):
        code = (self.DECL +
                "void f() { for (const auto& kv : totals) {} "
                "// conv-ok: DET-4\n}\n")
        self.assertEqual([], lint_src(code))


class Det5Test(unittest.TestCase):
    def test_trigger_pointer_hash(self):
        self.assertIn("DET-5", lint_src(
            "std::size_t h = std::hash<const Job*>{}(job);\n"))

    def test_trigger_void_cast(self):
        self.assertIn("DET-5", lint_src(
            "oss << static_cast<const void*>(ptr);\n"))

    def test_trigger_uintptr(self):
        self.assertIn("DET-5", lint_src(
            "auto key = reinterpret_cast<std::uintptr_t>(ptr);\n"))

    def test_trigger_percent_p_format(self):
        self.assertIn("DET-5", lint_src(
            'snprintf(buf, sizeof buf, "job at %p", (void*)job);\n'))

    def test_near_miss_string_hash_and_percent(self):
        self.assertEqual([], lint_src(
            "std::size_t h = std::hash<std::string>{}(key);\n"))
        self.assertEqual([], lint_src(
            'auto s = format("%prefix", prefix);\n'))  # %p must be a word

    def test_near_miss_percent_p_in_comment(self):
        self.assertEqual([], lint_src("// never print %p in results\n"))

    def test_waiver_canary(self):
        self.assertEqual([], lint_src(
            "oss << static_cast<const void*>(ptr);  // conv-ok: DET-5\n"))


class UnitRulesTest(unittest.TestCase):
    def test_unit1_parameter_trigger(self):
        self.assertIn("UNIT-1", lint_src(
            "void set_bound(double delay_bound);\n", header=True))
        self.assertIn("UNIT-1", lint_src(
            "void observe(double arrival_rate, int k);\n", header=True))

    def test_unit1_scalar_freq_still_fires(self):
        # Only the CONTAINER rule exempts frequency tokens.
        self.assertIn("UNIT-1", lint_src(
            "void tune(double freq);\n", header=True))

    def test_unit2_field_trigger(self):
        self.assertIn("UNIT-2", lint_src(
            "struct S { double max_power = 0.0; };\n", header=True))

    def test_unit3_return_trigger(self):
        self.assertIn("UNIT-3", lint_src(
            "double mean_delay() const;\n", header=True))

    def test_unit4_vector_trigger(self):
        self.assertIn("UNIT-4", lint_src(
            "std::vector<double> rates;\n", header=True))

    def test_unit4_frequency_vector_exempt(self):
        # Normalized DVFS operating points are dimensionless multipliers.
        self.assertEqual([], lint_src(
            "std::vector<double> frequencies;\n", header=True))

    def test_near_miss_vocab_must_be_a_token(self):
        # "rate" inside "separate"/"iterate" is not dimension vocabulary.
        self.assertEqual([], lint_src(
            "double separate = 0.0;\n", header=True))
        self.assertEqual([], lint_src(
            "void f(double iterate);\n", header=True))

    def test_near_miss_dimensionless_name(self):
        self.assertEqual([], lint_src(
            "double utilization = 0.0;\n", header=True))

    def test_out_of_scope_sources_and_tools(self):
        # UNIT rules govern src/ public headers only.
        self.assertEqual([], lint_src("double mean_delay() const;\n"))
        self.assertEqual([], lint_src(
            "struct S { double max_power = 0.0; };\n",
            header=True, in_library=False))

    def test_waiver_on_the_line(self):
        self.assertEqual([], lint_src(
            "struct S { double rate_smoothing = 0.5; "
            "};  // conv-ok: UNIT-2\n", header=True))

    def test_waiver_on_preceding_doc_comment(self):
        self.assertEqual([], lint_src(
            "/// EWMA weight, dimensionless. // conv-ok: UNIT-2\n"
            "double rate_smoothing = 0.5;\n", header=True))

    def test_waiver_for_other_rule_does_not_apply(self):
        self.assertIn("UNIT-4", lint_src(
            "std::vector<double> rates;  // conv-ok: UNIT-2\n", header=True))


class IoRulesTest(unittest.TestCase):
    def test_io1_ofstream_trigger(self):
        self.assertIn("IO-1", lint_src("std::ofstream out(path);\n"))

    def test_io1_ifstream_trigger(self):
        self.assertIn("IO-1", lint_src("std::ifstream in(path);\n"))

    def test_io1_fopen_trigger(self):
        self.assertIn("IO-1", lint_src('auto* f = std::fopen(p, "rb");\n'))

    def test_io1_bare_fopen_trigger(self):
        self.assertIn("IO-1", lint_src('FILE* f = fopen(p, "rb");\n'))

    def test_io2_rename_trigger(self):
        self.assertIn("IO-2", lint_src("std::filesystem::rename(a, b);\n"))

    def test_io2_alias_triggers(self):
        ids = lint_src("stdfs::remove(p);\nfs::create_directories(d);\n")
        self.assertEqual(ids.count("IO-2"), 2)

    def test_io2_c_rename_trigger(self):
        self.assertIn("IO-2", lint_src("std::rename(tmp, path);\n"))

    def test_near_miss_prose_and_member_calls(self):
        self.assertEqual([], lint_src(
            'const char* kDoc = "std::ofstream is banned";\n'
            "void create_directories(const std::string& p) override;\n"
            "inner_.remove(path);\n"
            "int transfstream = 0;\n"))

    def test_out_of_scope_tools_and_tests(self):
        self.assertEqual([], lint_src("std::ofstream f(p);\n",
                                      in_library=False))

    def test_sanctioned_seam_file_exempt(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "src" / "common" / "src" / "fs.cpp"
            path.parent.mkdir(parents=True)
            path.write_text('std::FILE* f = std::fopen(p, "rb");\n'
                            "std::rename(tmp2, path2);\n", encoding="utf-8")
            rules = [v.rule for v in lint_cpp.lint_file(path, True)]
        self.assertEqual([], rules)

    def test_waiver_canary(self):
        self.assertEqual([], lint_src(
            "std::ofstream f(p);  // conv-ok: IO-1\n"))


class Perf1Test(unittest.TestCase):
    def test_trigger_single_line(self):
        self.assertEqual(["PERF-1"], lint_src(
            'void f(const S& s) { require(s.ok, "station \'" + s.name + "\'"); }\n'))

    def test_trigger_multi_line_reports_the_require_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snippet.cpp"
            path.write_text(
                "void f(const S& s) {\n"
                "  require(s.ok,\n"
                "          \"class '\" + s.name +\n"
                "              \"' has empty route\");\n"
                "}\n", encoding="utf-8")
            found = [(v.rule, v.line) for v in lint_cpp.lint_file(path, True)]
        self.assertEqual([("PERF-1", 2)], found)

    def test_trigger_string_variable_and_qualified_call(self):
        self.assertIn("PERF-1", lint_src(
            'void f(const std::string& ctx, bool ok) '
            '{ cpm::require(ok, ctx + ": failed"); }\n'))

    def test_near_miss_lazy_parts_and_plus_in_condition(self):
        self.assertEqual([], lint_src(
            'void f(const S& s) {\n'
            '  require(s.ok, "station \'", s.name, "\' needs >= 1 server");\n'
            '  require(s.a + s.b < 1.0, "sum must stay below 1");\n'
            '  require(g(s.a, s.b + 1) > 0, "g must be positive");\n'
            '  require(s.ok, "a + b in prose is not concatenation");\n'
            '}\n'))

    def test_near_miss_other_functions(self):
        self.assertEqual([], lint_src(
            'void f(const S& s) {\n'
            '  require_stable(model, ctx + ": probe");\n'
            '  checker.require(s.ok, "a" + s.name);\n'
            '  throw Error("thrown messages may concatenate: " + s.name);\n'
            '}\n'))

    def test_waiver_canary(self):
        self.assertEqual([], lint_src(
            'void f(const S& s) {\n'
            '  require(s.ok, "a" + s.name);  // conv-ok: PERF-1\n'
            '}\n'))

    def test_out_of_scope_in_tests(self):
        self.assertEqual([], lint_src(
            'void f(const S& s) { require(s.ok, "a" + s.name); }\n',
            in_library=False))


class WaiverMechanismTest(unittest.TestCase):
    def test_comma_separated_waivers(self):
        line = ("bool f(double x) { assert(x == 1.5); return true; }"
                "  // conv-ok: CONV-5, CONV-6\n")
        self.assertEqual([], lint_src(line))

    def test_waiver_for_other_rule_does_not_apply(self):
        self.assertIn("CONV-6", lint_src(
            "void f(int n) { assert(n > 0); }  // conv-ok: CONV-5\n"))


class SarifOutputTest(unittest.TestCase):
    def test_sarif_document_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src" / "x").mkdir(parents=True)
            (root / "src" / "x" / "bad.cpp").write_text(
                "int f() { return rand(); }\n", encoding="utf-8")
            out = root / "report.sarif"
            rc = lint_cpp.main([str(root), "--format", "sarif",
                                "--out", str(out)])
            self.assertEqual(rc, 1)
            doc = json.loads(out.read_text(encoding="utf-8"))
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "lint_cpp")
        self.assertEqual(len(run["results"]), 1)
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "CONV-1")
        self.assertEqual(
            result["locations"][0]["physicalLocation"]["region"]["startLine"],
            1)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertEqual(rule_ids, set(lint_cpp.RULE_HELP))

    def test_clean_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            (root / "src" / "ok.cpp").write_text("int f() { return 1; }\n",
                                                 encoding="utf-8")
            rc = lint_cpp.main([str(root)])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()

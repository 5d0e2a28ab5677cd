#!/usr/bin/env python3
"""Self-tests for tools/sptx_lint.py: every rule is exercised against a
minimal fixture tree twice — once clean (no diagnostics) and once seeded
with exactly the violation the rule exists to catch. Registered as the
`sptx_lint_selftest` ctest; a rule that silently stops firing fails here
even while the real tree stays green."""

import importlib.util
import os
import sys
import tempfile
import unittest

_TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "tools", "sptx_lint.py")
_spec = importlib.util.spec_from_file_location("sptx_lint", _TOOLS)
sptx_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sptx_lint)


# A registry table + README pair that rule env-registry accepts; fixtures
# build on top of this minimal consistent core.
REGISTRY_CPP = """
#include <cstdlib>
static const ConfigSpec kRegistry[] = {
    {"SPTX_PLAN_CACHE", ConfigType::kFlag, "", "doc"},
    {"SPTX_FAULT_SPEC", ConfigType::kString, "", "doc"},
};
const char* read(const std::string& name) {
  return std::getenv(name.c_str());
}
"""

README_MD = """
# fixture
| knob | where |
| `SPTX_PLAN_CACHE` | trainer |
| `SPTX_FAULT_SPEC` | fault harness |
"""

COUNTERS_HPP = """
enum class Counter : int {
  kPlanCompiles = 0,
  kPlanCacheHits,
  kNumCounters,
};
inline constexpr const char* kCounterNames[] = {
    "plan_compiles",    // kPlanCompiles
    "plan_cache_hits",  // kPlanCacheHits
};
"""


class FixtureTree:
    """Context manager building a throwaway repo tree from {relpath: text}."""

    def __init__(self, files):
        self.files = dict(files)
        self.files.setdefault("src/common/runtime_config.cpp", REGISTRY_CPP)
        self.files.setdefault("src/profiling/counters.hpp", COUNTERS_HPP)
        self.files.setdefault("README.md", README_MD)

    def __enter__(self):
        self.tmp = tempfile.TemporaryDirectory()
        for rel, text in self.files.items():
            path = os.path.join(self.tmp.name, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        return self.tmp.name

    def __exit__(self, *exc):
        self.tmp.cleanup()


def lint(root, rule):
    return sptx_lint.Linter(root).run([rule])


class EnvGetenvRule(unittest.TestCase):
    def test_flags_getenv_outside_runtime_config(self):
        files = {"src/train/trainer.cpp":
                 'const char* v = std::getenv("SPTX_PLAN_CACHE");\n'}
        with FixtureTree(files) as root:
            found = lint(root, "env-getenv")
        self.assertEqual(len(found), 1)
        self.assertIn("env-getenv", found[0])
        self.assertIn("trainer.cpp", found[0])

    def test_runtime_config_itself_and_comments_are_exempt(self):
        files = {"src/train/trainer.cpp":
                 '// legacy: std::getenv("SPTX_PLAN_CACHE")\nint x = 0;\n'}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "env-getenv"), [])


class EnvRegistryRule(unittest.TestCase):
    def test_flags_unregistered_literal(self):
        files = {"src/serve/session.cpp":
                 'auto v = cfg.flag_or("SPTX_TYPO_KNOB", false);\n'}
        with FixtureTree(files) as root:
            found = lint(root, "env-registry")
        self.assertEqual(len(found), 1)
        self.assertIn("SPTX_TYPO_KNOB", found[0])

    def test_flags_knob_missing_from_readme(self):
        registry = REGISTRY_CPP.replace(
            '{"SPTX_FAULT_SPEC"', '{"SPTX_UNDOCUMENTED"')
        files = {"src/common/runtime_config.cpp": registry}
        with FixtureTree(files) as root:
            found = lint(root, "env-registry")
        self.assertEqual(len(found), 1)
        self.assertIn("SPTX_UNDOCUMENTED", found[0])
        self.assertIn("README", found[0])

    def test_registered_and_documented_knob_is_clean(self):
        files = {"src/serve/session.cpp":
                 'auto v = cfg.flag_or("SPTX_PLAN_CACHE", false);\n'}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "env-registry"), [])


class CounterNamesRule(unittest.TestCase):
    def test_flags_missing_name_entry(self):
        broken = COUNTERS_HPP.replace(
            '    "plan_cache_hits",  // kPlanCacheHits\n', "")
        files = {"src/profiling/counters.hpp": broken}
        with FixtureTree(files) as root:
            found = lint(root, "counter-names")
        self.assertTrue(found)
        self.assertIn("counter-names", found[0])

    def test_flags_misordered_tie_back(self):
        swapped = COUNTERS_HPP.replace(
            '"plan_compiles",    // kPlanCompiles',
            '"plan_compiles",    // kPlanCacheHits')
        files = {"src/profiling/counters.hpp": swapped}
        with FixtureTree(files) as root:
            found = lint(root, "counter-names")
        self.assertTrue(found)

    def test_aligned_table_is_clean(self):
        with FixtureTree({}) as root:
            self.assertEqual(lint(root, "counter-names"), [])


class CheckpointIoRule(unittest.TestCase):
    def test_flags_raw_ofstream_in_checkpoint_subsystem(self):
        files = {"src/models/checkpoint.cpp":
                 "std::ofstream os(path, std::ios::binary);\n"}
        with FixtureTree(files) as root:
            found = lint(root, "checkpoint-io")
        self.assertEqual(len(found), 1)
        self.assertIn("checkpoint-io", found[0])

    def test_flags_fopen_in_train(self):
        files = {"src/train/trainer.cpp":
                 'FILE* f = fopen(path.c_str(), "wb");\n'}
        with FixtureTree(files) as root:
            self.assertEqual(len(lint(root, "checkpoint-io")), 1)

    def test_atomic_writer_usage_and_other_dirs_are_clean(self):
        files = {
            "src/models/checkpoint.cpp":
                "AtomicFileWriter writer(path);\nwriter.stream() << x;\n",
            # dataset export is not a checkpoint subsystem
            "src/kg/dataset.cpp": "std::ofstream os(path);\n",
        }
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "checkpoint-io"), [])


class RngDisciplineRule(unittest.TestCase):
    def test_flags_rand_srand_and_random_device(self):
        files = {
            "src/kg/sampler.cpp": "int r = rand() % n;\n",
            "src/train/init.cpp": "srand(42);\n",
            "src/models/init.cpp": "std::random_device rd;\n",
        }
        with FixtureTree(files) as root:
            found = lint(root, "rng-discipline")
        self.assertEqual(len(found), 3)

    def test_seeded_rng_and_lookalikes_are_clean(self):
        files = {"src/kg/sampler.cpp":
                 "Rng rng(seed);\nauto v = rng.uniform();\n"
                 "int operand(int x);\nint y = operand(3);\n"}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "rng-discipline"), [])


class RawThreadsRule(unittest.TestCase):
    def test_flags_raw_thread_outside_runtime(self):
        files = {"src/serve/foo.cpp":
                 "std::thread t([] { work(); });\nt.join();\n"}
        with FixtureTree(files) as root:
            found = lint(root, "raw-threads")
        self.assertEqual(len(found), 1)
        self.assertIn("raw-threads", found[0])
        self.assertIn("foo.cpp", found[0])

    def test_runtime_dir_is_exempt_but_ddp_fork_join_site_is_not(self):
        files = {
            "src/runtime/pool.cpp": "std::thread worker(loop);\n",
            "src/distributed/ddp.cpp": "std::thread w(run_shard);\n",
        }
        with FixtureTree(files) as root:
            found = lint(root, "raw-threads")
        self.assertEqual(len(found), 1)
        self.assertIn(os.path.join("src", "distributed", "ddp.cpp"), found[0])

    def test_this_thread_and_comments_are_clean(self):
        files = {"src/serve/bar.cpp":
                 "std::this_thread::sleep_for(d);\n"
                 "// a std::thread used to live here\n"
                 "runtime::Thread t(fn);\n"}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "raw-threads"), [])


class ProcessControlRule(unittest.TestCase):
    def test_flags_fork_and_kill_outside_distributed(self):
        files = {
            "src/serve/spawn.cpp": "pid_t pid = fork();\n",
            "src/runtime/reaper.cpp": "::kill(pid, SIGTERM);\n"
                                      "waitpid(pid, &st, 0);\n",
        }
        with FixtureTree(files) as root:
            found = lint(root, "process-control")
        self.assertEqual(len(found), 3)
        self.assertIn("process-control", found[0])

    def test_distributed_dir_is_exempt(self):
        files = {"src/distributed/proc_ddp.cpp":
                 "pid_t pid = ::fork();\n"
                 "::execv(exe, argv);\n"
                 "::kill(pid, SIGKILL);\n"
                 "::waitpid(pid, &st, WNOHANG);\n"}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "process-control"), [])

    def test_members_comments_and_lookalikes_are_clean(self):
        files = {"src/serve/bar.cpp":
                 "// the supervisor calls fork() for us\n"
                 "task.kill();\n"
                 "session.fork_stream(id);\n"
                 "int pitchfork(int x);\nint y = pitchfork(3);\n"}
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "process-control"), [])


class IncludeLayersRule(unittest.TestCase):
    def test_flags_upward_include(self):
        files = {"src/tensor/matrix.cpp":
                 '#include "src/models/model.hpp"\n'}
        with FixtureTree(files) as root:
            found = lint(root, "include-layers")
        self.assertEqual(len(found), 1)
        self.assertIn("include-layers", found[0])

    def test_downward_and_sideways_includes_are_clean(self):
        files = {
            "src/serve/session.cpp":
                '#include "src/models/model.hpp"\n'
                '#include "src/common/error.hpp"\n',
            # models <-> baseline share a layer: both directions fine
            "src/baseline/dense_models.hpp":
                '#include "src/models/model.hpp"\n',
            "src/models/factory.cpp":
                '#include "src/baseline/dense_models.hpp"\n',
        }
        with FixtureTree(files) as root:
            self.assertEqual(lint(root, "include-layers"), [])

    def test_flags_unknown_directory(self):
        files = {"src/newdir/thing.cpp": "int x;\n"}
        with FixtureTree(files) as root:
            found = lint(root, "include-layers")
        self.assertEqual(len(found), 1)
        self.assertIn("no layer assignment", found[0])


class RealTree(unittest.TestCase):
    def test_actual_repo_is_clean(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        self.assertEqual(sptx_lint.Linter(os.path.abspath(root)).run(None), [])


if __name__ == "__main__":
    sys.exit(unittest.main())

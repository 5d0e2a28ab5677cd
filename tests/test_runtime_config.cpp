// Tests for the typed runtime-config registry (common/runtime_config.hpp):
// the spec table, env snapshotting, programmatic overrides with validation,
// tri-state fallbacks, JSON dump, and the process-wide install hook.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "src/common/error.hpp"
#include "src/common/runtime_config.hpp"

namespace sptx {
namespace {

/// Restores the pristine env-derived process snapshot on scope exit so
/// install() tests cannot leak state into other suites.
struct SnapshotGuard {
  ~SnapshotGuard() { config::install(RuntimeConfig::from_env()); }
};

TEST(RuntimeConfigSpecs, TableIsSane) {
  std::set<std::string> names;
  for (const ConfigSpec& spec : RuntimeConfig::specs()) {
    EXPECT_TRUE(std::string(spec.name).starts_with("SPTX_")) << spec.name;
    EXPECT_FALSE(spec.doc.empty()) << spec.name << " needs a doc string";
    EXPECT_TRUE(names.insert(std::string(spec.name)).second)
        << "duplicate knob " << spec.name;
    if (spec.type == ConfigType::kEnum)
      EXPECT_FALSE(spec.choices.empty()) << spec.name << " needs choices";
    else
      EXPECT_TRUE(spec.choices.empty()) << spec.name;
    // A non-empty default must itself validate: a snapshot of a clean
    // environment is usable with no special cases.
    if (!spec.default_value.empty()) {
      RuntimeConfig rc;
      EXPECT_NO_THROW(rc.set(spec.name, spec.default_value)) << spec.name;
    }
  }
  EXPECT_TRUE(names.count("SPTX_SPMM_KERNEL"));
  EXPECT_TRUE(names.count("SPTX_DDP_PLAN_CACHE"));
  EXPECT_TRUE(names.count("SPTX_DDP_WORKERS"));
  EXPECT_TRUE(names.count("SPTX_SERVE_MICROBATCH"));
}

TEST(RuntimeConfigFlags, ParsingIsCaseInsensitive) {
  for (const char* off : {"0", "off", "OFF", "Off", "false", "FALSE", "no",
                          "No"})
    EXPECT_FALSE(parse_flag(off, true)) << off;
  for (const char* on : {"1", "on", "ON", "true", "TRUE", "yes", "anything"})
    EXPECT_TRUE(parse_flag(on, false)) << on;
  EXPECT_TRUE(parse_flag("", true));    // empty keeps the fallback
  EXPECT_FALSE(parse_flag("", false));
}

TEST(RuntimeConfig, TriStateKnobsKeepTheCallersFallback) {
  const RuntimeConfig rc;  // defaults only
  EXPECT_FALSE(rc.is_set("SPTX_DDP_PLAN_CACHE"));
  EXPECT_TRUE(rc.flag_or("SPTX_DDP_PLAN_CACHE", true));
  EXPECT_FALSE(rc.flag_or("SPTX_DDP_PLAN_CACHE", false));
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 7), 7);
  // Knobs with real defaults resolve to them.
  EXPECT_FALSE(rc.flag_or("SPTX_NO_SIMD", true));
  EXPECT_DOUBLE_EQ(rc.double_or("SPTX_SCALE", 0.5), 0.01);
  EXPECT_EQ(rc.value_or("SPTX_SPMM_KERNEL", "x"), "auto");
}

TEST(RuntimeConfig, FromEnvSnapshotsCurrentEnvironment) {
  ::setenv("SPTX_DDP_WORKERS", "8", 1);
  ::setenv("SPTX_DDP_PLAN_CACHE", "OFF", 1);  // case-insensitive flag
  const RuntimeConfig rc = RuntimeConfig::from_env();
  ::unsetenv("SPTX_DDP_WORKERS");
  ::unsetenv("SPTX_DDP_PLAN_CACHE");
  // The snapshot holds what the environment said at from_env() time...
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 1), 8);
  EXPECT_EQ(rc.origin("SPTX_DDP_WORKERS"), ConfigOrigin::kEnvironment);
  EXPECT_FALSE(rc.flag_or("SPTX_DDP_PLAN_CACHE", true));
  // ...and a later snapshot no longer sees the unset variables.
  const RuntimeConfig later = RuntimeConfig::from_env();
  EXPECT_FALSE(later.is_set("SPTX_DDP_WORKERS"));
}

TEST(RuntimeConfig, MalformedEnvironmentValuesAreIgnored) {
  ::setenv("SPTX_DDP_WORKERS", "not-a-number", 1);
  ::setenv("SPTX_SPMM_KERNEL", "not-a-kernel", 1);
  const RuntimeConfig rc = RuntimeConfig::from_env();
  ::unsetenv("SPTX_DDP_WORKERS");
  ::unsetenv("SPTX_SPMM_KERNEL");
  EXPECT_FALSE(rc.is_set("SPTX_DDP_WORKERS"));
  EXPECT_EQ(rc.int_or("SPTX_DDP_WORKERS", 3), 3);
  EXPECT_EQ(rc.value_or("SPTX_SPMM_KERNEL", ""), "auto");
}

TEST(RuntimeConfig, SetValidatesNameTypeAndChoices) {
  RuntimeConfig rc;
  EXPECT_THROW(rc.set("SPTX_NOT_A_KNOB", "1"), Error);
  EXPECT_THROW(rc.set("SPTX_SPMM_KERNEL", "warp-speed"), Error);
  EXPECT_THROW(rc.set("SPTX_DDP_WORKERS", "many"), Error);
  rc.set("SPTX_SPMM_KERNEL", "TILED");  // case-insensitive enum
  EXPECT_EQ(rc.origin("SPTX_SPMM_KERNEL"), ConfigOrigin::kOverride);
  EXPECT_EQ(to_lower(rc.value_or("SPTX_SPMM_KERNEL", "")), "tiled");
  rc.clear("SPTX_SPMM_KERNEL");
  EXPECT_EQ(rc.value_or("SPTX_SPMM_KERNEL", ""), "auto");
  EXPECT_EQ(rc.origin("SPTX_SPMM_KERNEL"), ConfigOrigin::kDefault);
}

TEST(RuntimeConfig, TypedAccessorsRejectTypeMismatch) {
  const RuntimeConfig rc;
  EXPECT_THROW(rc.flag_or("SPTX_SCALE", false), Error);
  EXPECT_THROW(rc.int_or("SPTX_NO_SIMD", 0), Error);
  EXPECT_THROW(rc.double_or("SPTX_DDP_WORKERS", 0.0), Error);
  EXPECT_THROW(rc.flag_or("SPTX_NOT_A_KNOB", false), Error);
}

TEST(RuntimeConfig, ToJsonRendersEveryKnob) {
  RuntimeConfig rc;
  rc.set("SPTX_DDP_WORKERS", "4");
  const std::string json = rc.to_json();
  for (const ConfigSpec& spec : RuntimeConfig::specs())
    EXPECT_NE(json.find(std::string(spec.name)), std::string::npos)
        << spec.name;
  EXPECT_NE(json.find("\"SPTX_DDP_WORKERS\": {\"value\": 4, "
                      "\"origin\": \"override\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"SPTX_DDP_PLAN_CACHE\": {\"value\": null"),
            std::string::npos)
      << json;
}

TEST(RuntimeConfig, InstallSwapsTheProcessSnapshot) {
  SnapshotGuard guard;
  RuntimeConfig rc;
  rc.set("SPTX_DDP_WORKERS", "13");
  config::install(rc);
  EXPECT_EQ(config::current()->int_or("SPTX_DDP_WORKERS", 1), 13);
  // A reader that grabbed the old snapshot keeps a consistent view.
  const auto held = config::current();
  config::install(RuntimeConfig{});
  EXPECT_EQ(held->int_or("SPTX_DDP_WORKERS", 1), 13);
  EXPECT_EQ(config::current()->int_or("SPTX_DDP_WORKERS", 1), 1);
}

}  // namespace
}  // namespace sptx

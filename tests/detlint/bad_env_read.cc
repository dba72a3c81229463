// detlint fixture: environment reads in deterministic-module code.
// A variable in the environment can change what a run does without
// showing on its command line or in any artifact, so every read must
// be reviewed (an option is usually the better home).

#include <cstdlib>

namespace fixture {

bool batchingOff()
{
    const char *env = std::getenv("DCBATT_BATCH");  // detlint: expect(env-read)
    return env != nullptr;
}

const char *crashDir()
{
    return getenv("DCBATT_CRASH_DIR");  // detlint: expect(env-read)
}

const char *secureHome()
{
    return secure_getenv("HOME");  // detlint: expect(env-read)
}

// False-positive guards: names that merely contain "getenv", and the
// word inside a string or comment, are not reads.
const char *getenvOverride(const char *fallback) { return fallback; }
const char *my_getenv(const char *name) { return name; }
const char *label() { return "getenv(\"X\")"; }

} // namespace fixture

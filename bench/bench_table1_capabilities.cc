/**
 * @file
 * Table I reproduction: which BlueField-2 functions are also
 * supported by Intel ISA extensions and/or QAT on the host — the
 * capability matrix motivating the host-accelerator comparison.
 * Static data transcribed from the paper, plus the execution-unit
 * mapping our calibration tables actually use.
 */

#include <cstdio>

#include "core/sweep.hh"
#include "funcs/calibration.hh"
#include "funcs/registry.hh"

using namespace halsim;
using namespace halsim::funcs;

int
main(int argc, char **argv)
{
    core::ArgRegistrar(argv[0], "Table I.").parse(argc, argv);
    std::printf("=== Table I: host acceleration support for BF-2 "
                "functions ===\n");
    std::printf("%-10s %4s %4s\n", "function", "ISA", "QAT");
    const struct
    {
        const char *name;
        bool isa, qat;
    } rows[] = {
        {"SHA", true, true},      {"RSA", true, true},
        {"EC-DH", true, true},    {"AES", true, true},
        {"DSA", true, true},      {"EC-DSA", true, true},
        {"Deflate", true, true},  {"RAND", true, true},
        {"GHASH", true, false},   {"HMAC", true, true},
        {"MD5", true, false},     {"DES-EDE3", true, false},
        {"Whirlpool", true, false}, {"RMD160", true, false},
        {"DES-CBC", true, false}, {"Camellia", true, false},
        {"RC2-CBC", true, false}, {"RC4", true, false},
        {"Blowfish", true, false}, {"SEED-CBC", true, false},
        {"CAST-CBC", true, false}, {"EdDSA", true, false},
        {"MD4", true, false},
    };
    for (const auto &r : rows)
        std::printf("%-10s %4s %4s\n", r.name, r.isa ? "y" : "-",
                    r.qat ? "y" : "-");

    std::printf("\n=== execution-unit mapping used by the model ===\n");
    std::printf("%-8s %-14s %-14s\n", "function", "on host", "on BF-2");
    for (FunctionId fn : allFunctions()) {
        const auto &h = profile(Platform::HostSkylake, fn);
        const auto &s = profile(Platform::SnicBf2, fn);
        std::printf("%-8s %-14s %-14s\n", functionName(fn),
                    h.unit == ExecUnit::Accel ? "QAT accel" : "CPU (ISA)",
                    s.unit == ExecUnit::Accel ? "BF-2 accel" : "Arm CPU");
    }
    return 0;
}

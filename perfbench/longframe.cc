/**
 * @file
 * The seeded long-frame program behind sampled_long.
 *
 * The program text is fixed; the seed generates only its input, which
 * the program reads from stdin through the read ecall. The input is
 * 16384 64-byte records (1 MiB, between the modelled 512 KiB L2 and
 * 2 MiB L3). Each round runs four phases, one per fusion-relevant
 * behaviour, over the next 8192-record slice:
 *
 *  A. same-line record loads: an adjacent load pair (CSF) and a
 *     same-line pair one instruction apart (NCSF), plus a store pair;
 *  B. a pointer chase over a seeded single-cycle permutation of all
 *     records, continuing where the last round stopped;
 *  C. call-heavy code whose callee-saved spills are reloaded while the
 *     stores are still queued (the store-to-load forwarding hotspot);
 *  D. branches on seeded record bits, so outcomes are data-dependent.
 *
 * Every phase runs longer than a 55k-instruction sample window, and a
 * round (about 454k instructions) does not divide the 1.28M-instruction
 * sample stride, so successive windows land at well-spread offsets:
 * some inside one phase, some across two. Interval cells therefore
 * differ in cost the way the phases of a real program do; were they
 * all alike, their median latency would only say which of the host's
 * speed states happened to hold the most cells. The exit code is a
 * checksum of all four phases; longFrameReference() computes it
 * natively from the same input.
 */

#include <numeric>
#include <utility>
#include <vector>

#include "bench.hh"
#include "common/random.hh"

namespace perfbench
{

namespace
{

constexpr uint64_t kBytes = LongFrameShape::records * 64;
constexpr uint64_t kSliceBytes = LongFrameShape::slice * 64;
constexpr uint64_t kLcgMul = 6364136223846793005ULL;
constexpr uint64_t kLcgAdd = 1442695040888963407ULL;
/** Phase C advances three records per call, wrapping at the end. */
constexpr uint64_t kCallStride = 192;

const char *kSource = R"(
    la s0, recs
    mv a1, s0
    li s1, {BYTES}
read_loop:
    li a7, 63
    li a0, 0
    mv a2, s1
    ecall
    blez a0, read_done
    add a1, a1, a0
    sub s1, s1, a0
    bnez s1, read_loop
read_done:
    li s2, 0
    li s3, 0
    li s4, 0
    li s5, 0
    li s7, 0
    li s8, 0
    li s9, 0
    li s10, 0
    li s1, {ROUNDS}
round:
    add t0, s0, s10
    li s6, {SLICE}
phase_a:
    ld a1, 8(t0)
    ld a2, 16(t0)
    add s2, s2, a1
    ld a3, 24(t0)
    xor s2, s2, a2
    ld a4, 32(t0)
    add s2, s2, a3
    xor s2, s2, a4
    sd s2, 48(t0)
    sd a1, 56(t0)
    addi t0, t0, 64
    addi s6, s6, -1
    bnez s6, phase_a

    li s6, {CHASE}
phase_b:
    add t0, s0, s7
    ld s7, 0(t0)
    ld a1, 8(t0)
    ld a2, 48(t0)
    add s3, s3, a1
    xor s3, s3, a2
    slli a3, s3, 1
    srli a4, s3, 63
    or s3, a3, a4
    addi s6, s6, -1
    bnez s6, phase_b

    li s6, {CALLS}
phase_c:
    add a1, s0, s9
    mv a0, s4
    call mix
    mv s4, a0
    addi s9, s9, {CALLSTRIDE}
    li t1, {MASK}
    and s9, s9, t1
    addi s6, s6, -1
    bnez s6, phase_c

    add t0, s0, s10
    li s6, {SLICE}
phase_d:
    ld a1, 40(t0)
    xor a1, a1, s8
    andi a2, a1, 1
    beqz a2, d_even
    add s5, s5, a1
    j d_next
d_even:
    ld a3, 48(t0)
    xor s5, s5, a1
    add s5, s5, a3
d_next:
    andi a2, a1, 6
    bnez a2, d_skip
    slli a3, s5, 5
    xor s5, s5, a3
d_skip:
    addi t0, t0, 64
    addi s6, s6, -1
    bnez s6, phase_d

    li t1, {SLICEBYTES}
    add s10, s10, t1
    li t1, {MASK}
    and s10, s10, t1
    li t1, {LCGMUL}
    mul s8, s8, t1
    li t1, {LCGADD}
    add s8, s8, t1
    addi s1, s1, -1
    bnez s1, round

    xor a0, s2, s3
    add a0, a0, s4
    xor a0, a0, s5
    li a7, 93
    ecall

mix:
    addi sp, sp, -32
    sd ra, 24(sp)
    sd s9, 16(sp)
    sd s10, 8(sp)
    sd s11, 0(sp)
    ld s9, 8(a1)
    ld s10, 16(a1)
    add s11, a0, s9
    xor s11, s11, s10
    mv a0, s11
    call leaf
    add a0, a0, s9
    ld s11, 0(sp)
    ld s10, 8(sp)
    ld s9, 16(sp)
    ld ra, 24(sp)
    addi sp, sp, 32
    ret

leaf:
    addi sp, sp, -16
    sd a0, 8(sp)
    sd a1, 0(sp)
    ld t0, 24(a1)
    ld t1, 8(sp)
    xor a0, t1, t0
    slli t2, a0, 3
    add a0, a0, t2
    ld a1, 0(sp)
    addi sp, sp, 16
    ret

    .data
    .align 6
recs:
    .zero {BYTES}
)";

void
storeLe(std::string &out, size_t offset, uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        out[offset + i] = char(uint8_t(value >> (8 * i)));
}

uint64_t
loadLe(const std::string &in, size_t offset)
{
    uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= uint64_t(uint8_t(in[offset + i])) << (8 * i);
    return value;
}

} // namespace

std::string
makeLongFrameInput(uint64_t seed)
{
    constexpr uint64_t n = LongFrameShape::records;
    helios::Rng rng(seed);

    // Sattolo's shuffle: a single cycle, so the chase visits every
    // record before it repeats.
    std::vector<uint64_t> next(n);
    std::iota(next.begin(), next.end(), 0);
    for (uint64_t i = n - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(i)]);

    std::string input(kBytes, '\0');
    for (uint64_t i = 0; i < n; ++i) {
        storeLe(input, i * 64, next[i] * 64);
        for (unsigned field = 1; field < 8; ++field)
            storeLe(input, i * 64 + field * 8, rng.next());
    }
    return input;
}

std::string
longFrameSource()
{
    using helios::workload_detail::substitute;
    std::string text = kSource;
    text = substitute(text, "BYTES", kBytes);
    text = substitute(text, "SLICE", LongFrameShape::slice);
    text = substitute(text, "SLICEBYTES", kSliceBytes);
    text = substitute(text, "CHASE", LongFrameShape::chaseSteps);
    text = substitute(text, "CALLS", LongFrameShape::calls);
    text = substitute(text, "ROUNDS", LongFrameShape::rounds);
    text = substitute(text, "CALLSTRIDE", kCallStride);
    text = substitute(text, "MASK", kBytes - 1);
    text = substitute(text, "LCGMUL", kLcgMul);
    text = substitute(text, "LCGADD", kLcgAdd);
    return text;
}

uint64_t
longFrameReference(const std::string &input)
{
    constexpr uint64_t n = LongFrameShape::records;
    std::vector<uint64_t> rec(n * 8);
    for (uint64_t i = 0; i < n * 8; ++i)
        rec[i] = loadLe(input, i * 8);

    auto leaf = [&](uint64_t a0, const uint64_t *r) {
        uint64_t v = a0 ^ r[3];
        return v + (v << 3);
    };
    auto mix = [&](uint64_t a0, const uint64_t *r) {
        const uint64_t saved = r[1];
        return leaf((a0 + saved) ^ r[2], r) + saved;
    };

    uint64_t acc_a = 0, acc_b = 0, acc_c = 0, acc_d = 0;
    uint64_t chase = 0, call_offset = 0, round_mix = 0, slice = 0;
    for (uint64_t round = 0; round < LongFrameShape::rounds; ++round) {
        for (uint64_t i = slice; i < slice + LongFrameShape::slice; ++i) {
            uint64_t *r = &rec[i * 8];
            acc_a += r[1];
            acc_a ^= r[2];
            acc_a += r[3];
            acc_a ^= r[4];
            r[6] = acc_a;
            r[7] = r[1];
        }
        for (uint64_t k = 0; k < LongFrameShape::chaseSteps; ++k) {
            const uint64_t *r = &rec[chase / 8];
            chase = r[0];
            acc_b += r[1];
            acc_b ^= r[6];
            acc_b = (acc_b << 1) | (acc_b >> 63);
        }
        for (uint64_t c = 0; c < LongFrameShape::calls; ++c) {
            acc_c = mix(acc_c, &rec[call_offset / 8]);
            call_offset = (call_offset + kCallStride) & (kBytes - 1);
        }
        for (uint64_t i = slice; i < slice + LongFrameShape::slice; ++i) {
            const uint64_t *r = &rec[i * 8];
            const uint64_t key = r[5] ^ round_mix;
            if (key & 1) {
                acc_d += key;
            } else {
                acc_d ^= key;
                acc_d += r[6];
            }
            if ((key & 6) == 0)
                acc_d ^= acc_d << 5;
        }
        slice = (slice + LongFrameShape::slice) % n;
        round_mix = round_mix * kLcgMul + kLcgAdd;
    }
    return ((acc_a ^ acc_b) + acc_c) ^ acc_d;
}

} // namespace perfbench

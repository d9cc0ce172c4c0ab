// AVX-512 kernel backend. Compiled only on x86-64, with
// `-mavx512f -ffp-contract=off`; entered only after a runtime
// __builtin_cpu_supports("avx512f") probe. GCC's -mavx512f implies -mavx2, so
// the byte-span helpers reuse 256-bit code (every AVX-512 CPU has AVX2).
//
// Bit-identity: one independent output element per zmm lane, k-terms added in
// ascending order, no FMA, contraction off — byte-identical to scalar.
#include "src/tensor/kernels_generic.h"

#if !defined(__AVX512F__)
#error "kernels_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

namespace dz {
namespace kernels {
namespace {

struct Avx512Ops {
  static constexpr int kWidth = 16;
  static constexpr size_t kQuantJr = 16;
  static constexpr size_t kSparseRows = 16;

  // 4x16 NT micro-kernel: one zmm accumulator per output row.
  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const __m512 bv =
          _mm512_loadu_ps(panel + static_cast<size_t>(p) * kMicroCols);
      acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(arow0[p]), bv));
      acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(arow1[p]), bv));
      acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(arow2[p]), bv));
      acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(arow3[p]), bv));
    }
    _mm512_storeu_ps(out + 0 * kMicroCols, acc0);
    _mm512_storeu_ps(out + 1 * kMicroCols, acc1);
    _mm512_storeu_ps(out + 2 * kMicroCols, acc2);
    _mm512_storeu_ps(out + 3 * kMicroCols, acc3);
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    __m512 acc = _mm512_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const __m512 bv =
          _mm512_loadu_ps(panel + static_cast<size_t>(p) * kMicroCols);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(arow[p]), bv));
    }
    _mm512_storeu_ps(out, acc);
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    const __m512 vv = _mm512_set1_ps(v);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 yv = _mm512_loadu_ps(y + i);
      _mm512_storeu_ps(
          y + i, _mm512_add_ps(yv, _mm512_mul_ps(vv, _mm512_loadu_ps(x + i))));
    }
    for (; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  // Classic in-register 8x8 transpose on 256-bit registers (implied AVX2);
  // avoids the cross-128-lane permute zoo a full 16x16 zmm transpose needs.
  static void Transpose8x8(__m256& r0, __m256& r1, __m256& r2, __m256& r3,
                           __m256& r4, __m256& r5, __m256& r6, __m256& r7) {
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
    r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
    r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
    r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
    r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
    r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
    r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
    r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
  }

  // Full-stripe transpose pack as four 8x8 in-register transposes per 8 k
  // columns. Pure data movement; at small m the pack dominates GemmNT.
  static void PackStrip16(const float* b0, size_t ldb, int k, float* panel) {
    const int k8 = k & ~7;
    for (int p = 0; p < k8; p += 8) {
      for (int rb = 0; rb < static_cast<int>(kMicroCols); rb += 8) {
        const float* src = b0 + static_cast<size_t>(rb) * ldb + p;
        __m256 r0 = _mm256_loadu_ps(src);
        __m256 r1 = _mm256_loadu_ps(src + ldb);
        __m256 r2 = _mm256_loadu_ps(src + 2 * ldb);
        __m256 r3 = _mm256_loadu_ps(src + 3 * ldb);
        __m256 r4 = _mm256_loadu_ps(src + 4 * ldb);
        __m256 r5 = _mm256_loadu_ps(src + 5 * ldb);
        __m256 r6 = _mm256_loadu_ps(src + 6 * ldb);
        __m256 r7 = _mm256_loadu_ps(src + 7 * ldb);
        Transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7);
        float* dst = panel + static_cast<size_t>(p) * kMicroCols + rb;
        _mm256_storeu_ps(dst + 0 * kMicroCols, r0);
        _mm256_storeu_ps(dst + 1 * kMicroCols, r1);
        _mm256_storeu_ps(dst + 2 * kMicroCols, r2);
        _mm256_storeu_ps(dst + 3 * kMicroCols, r3);
        _mm256_storeu_ps(dst + 4 * kMicroCols, r4);
        _mm256_storeu_ps(dst + 5 * kMicroCols, r5);
        _mm256_storeu_ps(dst + 6 * kMicroCols, r6);
        _mm256_storeu_ps(dst + 7 * kMicroCols, r7);
      }
    }
    for (int p = k8; p < k; ++p) {
      float* dst = panel + static_cast<size_t>(p) * kMicroCols;
      for (size_t t = 0; t < kMicroCols; ++t) {
        dst[t] = b0[t * ldb + p];
      }
    }
  }

  static void Rank1x4(float v0, float v1, float v2, float v3, const float* b,
                      float* c0, float* c1, float* c2, float* c3, size_t n) {
    const __m512 w0 = _mm512_set1_ps(v0);
    const __m512 w1 = _mm512_set1_ps(v1);
    const __m512 w2 = _mm512_set1_ps(v2);
    const __m512 w3 = _mm512_set1_ps(v3);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m512 bv = _mm512_loadu_ps(b + j);
      _mm512_storeu_ps(c0 + j, _mm512_add_ps(_mm512_loadu_ps(c0 + j),
                                             _mm512_mul_ps(w0, bv)));
      _mm512_storeu_ps(c1 + j, _mm512_add_ps(_mm512_loadu_ps(c1 + j),
                                             _mm512_mul_ps(w1, bv)));
      _mm512_storeu_ps(c2 + j, _mm512_add_ps(_mm512_loadu_ps(c2 + j),
                                             _mm512_mul_ps(w2, bv)));
      _mm512_storeu_ps(c3 + j, _mm512_add_ps(_mm512_loadu_ps(c3 + j),
                                             _mm512_mul_ps(w3, bv)));
    }
    for (; j < n; ++j) {
      const float bv = b[j];
      c0[j] += v0 * bv;
      c1[j] += v1 * bv;
      c2[j] += v2 * bv;
      c3[j] += v3 * bv;
    }
  }

  static void Add(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(
          y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] += x[i];
    }
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(
          y + i, _mm512_sub_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] -= x[i];
    }
  }

  static void Scale(float* y, float s, size_t n) {
    const __m512 sv = _mm512_set1_ps(s);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), sv));
    }
    for (; i < n; ++i) {
      y[i] *= s;
    }
  }

  // 16 weight-row chains per pass over the decoded panel.
  // Vector affine decode: int subtract and int->float convert are exact, so
  // the one mul rounds identically to the scalar expression.
  static void DequantAffine(const int* codes, size_t len, int zero, float scale,
                            float* out) {
    const __m512i zv = _mm512_set1_epi32(zero);
    const __m512 sv = _mm512_set1_ps(scale);
    size_t i = 0;
    for (; i + 16 <= len; i += 16) {
      const __m512i c = _mm512_loadu_si512(codes + i);
      const __m512 f = _mm512_cvtepi32_ps(_mm512_sub_epi32(c, zv));
      _mm512_storeu_ps(out + i, _mm512_mul_ps(f, sv));
    }
    for (; i < len; ++i) {
      out[i] = static_cast<float>(codes[i] - zero) * scale;
    }
  }

  // Jr = 16 = kMicroCols, so the interleave IS the GEMM panel pack shape.
  static void InterleaveQuant(const float* rowbuf, size_t stride, size_t len,
                              float* panel) {
    static_assert(kQuantJr == kMicroCols, "interleave reuses the strip pack");
    PackStrip16(rowbuf, stride, static_cast<int>(len), panel);
  }

  static void QuantInner(const float* x, const float* panel, size_t len,
                         float* acc) {
    __m512 accv = _mm512_loadu_ps(acc);
    for (size_t c = 0; c < len; ++c) {
      accv = _mm512_add_ps(
          accv, _mm512_mul_ps(_mm512_set1_ps(x[c]),
                              _mm512_loadu_ps(panel + c * kQuantJr)));
    }
    _mm512_storeu_ps(acc, accv);
  }

  // 16 activation-row chains; per kept slot, gather rows' x[cols[kk]].
  static void SparseInner(const float* x0, size_t stride, const int* cols,
                          const float* vals, size_t len, float* acc) {
    const __m512i roff = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(stride)));
    __m512 accv = _mm512_loadu_ps(acc);
    for (size_t kk = 0; kk < len; ++kk) {
      const __m512i idx = _mm512_add_epi32(roff, _mm512_set1_epi32(cols[kk]));
      // Full-mask gather with an explicit zero merge source: the plain
      // _mm512_i32gather_ps leaves its merge register undefined, which GCC
      // flags with -Wmaybe-uninitialized.
      const __m512 xv = _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                                 static_cast<__mmask16>(0xFFFF),
                                                 idx, x0, 4);
      accv = _mm512_add_ps(accv, _mm512_mul_ps(xv, _mm512_set1_ps(vals[kk])));
    }
    _mm512_storeu_ps(acc, accv);
  }

  // 16 output-column chains (one zmm) over a 2:4 panel. A code word vector
  // holds 32 / kBits consecutive slots of all 16 rows, an index word vector 16
  // slots' positions: each slot is an immediate shift and a mask. The x value
  // at position pos of the slot's 4-column group comes from a broadcast of
  // that group and a lane permute — no gather. With kWithBase, the base chain
  // over the dense panel `base` advances by the same 4 columns at the first
  // slot of each group, so the two independent chains overlap. The full-mask
  // maskz forms compute the same as the plain intrinsics, whose undefined
  // merge source GCC flags with -Wmaybe-uninitialized.
  template <int kBits, bool kWithBase>
  static void PanelChains(const float* x, const float* base,
                          const Sparse24Matrix::Panel& p, float* out) {
    constexpr int kPerWord = 32 / kBits;
    constexpr __mmask16 kAll = 0xFFFF;
    const __m512i mask = _mm512_set1_epi32((1 << kBits) - 1);
    const __m512i three = _mm512_set1_epi32(3);
    const uint32_t* codes = p.codes;
    const uint32_t* indices = p.indices;
    const int32_t* zeros = p.zeros;
    const float* scales = p.scales;
    __m512 acc = _mm512_setzero_ps();
    __m512 base_acc = _mm512_setzero_ps();
    __m512i zero = _mm512_loadu_si512(zeros);
    __m512 scale = _mm512_loadu_ps(scales);
    __m512i iw = _mm512_setzero_si512();
    int group_left = p.group_size;
    for (int kk = 0; kk < p.kept;) {
      __m512i cw = _mm512_loadu_si512(codes);
      codes += kPanelRows;
      for (int s = 0; s < kPerWord && kk < p.kept; ++s, ++kk) {
        if (group_left == 0) {
          zeros += kPanelRows;
          scales += kPanelRows;
          zero = _mm512_loadu_si512(zeros);
          scale = _mm512_loadu_ps(scales);
          group_left = p.group_size;
        }
        --group_left;
        if ((kk & 15) == 0) {
          iw = _mm512_loadu_si512(indices);
          indices += kPanelRows;
        }
        const float* xg = x + (kk >> 1) * 4;
        if (kWithBase && (kk & 1) == 0) {
          const float* bg = base + static_cast<size_t>(kk >> 1) * 4 * kPanelRows;
          for (int c = 0; c < 4; ++c) {
            base_acc = _mm512_add_ps(
                base_acc, _mm512_mul_ps(_mm512_set1_ps(xg[c]),
                                        _mm512_loadu_ps(bg + c * kPanelRows)));
          }
        }
        const __m512i q = _mm512_and_si512(cw, mask);
        cw = _mm512_maskz_srli_epi32(kAll, cw, kBits);
        const __m512i pos = _mm512_and_si512(iw, three);
        iw = _mm512_maskz_srli_epi32(kAll, iw, 2);
        const __m512 xv = _mm512_maskz_permutexvar_ps(
            kAll, pos, _mm512_maskz_broadcast_f32x4(kAll, _mm_loadu_ps(xg)));
        const __m512 v = _mm512_mul_ps(
            _mm512_maskz_cvtepi32_ps(kAll, _mm512_sub_epi32(q, zero)), scale);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(xv, v));
      }
    }
    _mm512_storeu_ps(out, kWithBase ? _mm512_add_ps(base_acc, acc) : acc);
  }

  template <bool kWithBase>
  static void Panel(const float* x, const float* base,
                    const Sparse24Matrix::Panel& p, float* out) {
    if (p.kept == 0) {
      _mm512_storeu_ps(out, _mm512_setzero_ps());
    } else if (p.bits == 2) {
      PanelChains<2, kWithBase>(x, base, p, out);
    } else if (p.bits == 4) {
      PanelChains<4, kWithBase>(x, base, p, out);
    } else {
      PanelChains<8, kWithBase>(x, base, p, out);
    }
  }

  static void SparsePanel(const float* x, const Sparse24Matrix::Panel& p,
                          float* out) {
    Panel<false>(x, nullptr, p, out);
  }

  static void FusedPanel(const float* x, const float* base,
                         const Sparse24Matrix::Panel& p, float* out) {
    Panel<true>(x, base, p, out);
  }

  // Byte helpers use 256-bit ops (implied AVX2): cmpeq+movemask needs AVX512BW
  // for 64-byte vectors, which -mavx512f alone does not enable.
  static size_t MatchLen(const uint8_t* a, const uint8_t* b, size_t max) {
    size_t i = 0;
    while (i + 32 <= max) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const uint32_t eq = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
      if (eq != 0xFFFFFFFFu) {
        return i + static_cast<size_t>(__builtin_ctz(~eq));
      }
      i += 32;
    }
    while (i < max && a[i] == b[i]) {
      ++i;
    }
    return i;
  }

  static void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
    if (dist >= 32) {
      const uint8_t* src = dst - dist;
      size_t i = 0;
      for (; i + 32 <= len; i += 32) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
      }
      for (; i < len; ++i) {
        dst[i] = src[i];
      }
      return;
    }
    ScalarOps::CopyMatch(dst, dist, len);
  }
};

}  // namespace

const Backend* GetAvx512Backend() {
  return MakeBackendTable<Avx512Ops>("avx512", "AVX-512F (16-wide fp32)");
}

}  // namespace kernels
}  // namespace dz

// AVX2 kernel backend. Compiled only on x86-64, with `-mavx2 -ffp-contract=off`
// (see src/tensor/CMakeLists.txt); entered only after a runtime
// __builtin_cpu_supports("avx2") probe, so no AVX instruction can fault on an
// older CPU.
//
// Bit-identity: every vector lane carries one independent output element's
// accumulator chain; k-terms are added one per iteration in ascending order,
// exactly like the scalar backend. No FMA intrinsics are used and contraction
// is disabled, so mul+add rounds twice, same as scalar.
#include "src/tensor/kernels_generic.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

namespace dz {
namespace kernels {
namespace {

struct Avx2Ops {
  static constexpr int kWidth = 8;
  static constexpr size_t kQuantJr = 8;
  static constexpr size_t kSparseRows = 8;

  // 4x16 NT micro-kernel: 8 ymm accumulators, one per (row, 8-col half); each
  // output column is a single lane accumulating a0[p]*b[p] in ascending p.
  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      __m256 av = _mm256_set1_ps(arow0[p]);
      acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
      acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow1[p]);
      acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
      acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow2[p]);
      acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
      acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow3[p]);
      acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
      acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(out + 0 * kMicroCols, acc00);
    _mm256_storeu_ps(out + 0 * kMicroCols + 8, acc01);
    _mm256_storeu_ps(out + 1 * kMicroCols, acc10);
    _mm256_storeu_ps(out + 1 * kMicroCols + 8, acc11);
    _mm256_storeu_ps(out + 2 * kMicroCols, acc20);
    _mm256_storeu_ps(out + 2 * kMicroCols + 8, acc21);
    _mm256_storeu_ps(out + 3 * kMicroCols, acc30);
    _mm256_storeu_ps(out + 3 * kMicroCols + 8, acc31);
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const __m256 av = _mm256_set1_ps(arow[p]);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
    }
    _mm256_storeu_ps(out, acc0);
    _mm256_storeu_ps(out + 8, acc1);
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    const __m256 vv = _mm256_set1_ps(v);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(yv, _mm256_mul_ps(vv, _mm256_loadu_ps(x + i))));
    }
    for (; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  // Classic in-register 8x8 transpose (unpack -> shuffle -> permute2f128).
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
  // columns. Pure data movement (kernel_parity_test would catch any lane
  // landing in the wrong panel slot bit-for-bit). At small m the pack is the
  // dominant cost of GemmNT, so this is load-bearing for the m=4 bench rows.
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
    const __m256 w0 = _mm256_set1_ps(v0);
    const __m256 w1 = _mm256_set1_ps(v1);
    const __m256 w2 = _mm256_set1_ps(v2);
    const __m256 w3 = _mm256_set1_ps(v3);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 bv = _mm256_loadu_ps(b + j);
      _mm256_storeu_ps(c0 + j, _mm256_add_ps(_mm256_loadu_ps(c0 + j),
                                             _mm256_mul_ps(w0, bv)));
      _mm256_storeu_ps(c1 + j, _mm256_add_ps(_mm256_loadu_ps(c1 + j),
                                             _mm256_mul_ps(w1, bv)));
      _mm256_storeu_ps(c2 + j, _mm256_add_ps(_mm256_loadu_ps(c2 + j),
                                             _mm256_mul_ps(w2, bv)));
      _mm256_storeu_ps(c3 + j, _mm256_add_ps(_mm256_loadu_ps(c3 + j),
                                             _mm256_mul_ps(w3, bv)));
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
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] += x[i];
    }
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] -= x[i];
    }
  }

  static void Scale(float* y, float s, size_t n) {
    const __m256 sv = _mm256_set1_ps(s);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), sv));
    }
    for (; i < n; ++i) {
      y[i] *= s;
    }
  }

  // 8 weight-row chains (lanes) share each broadcast x[c]; panel rows are
  // contiguous 8-lane groups, so this is one load + one mul-add per c.
  // Vector affine decode: int subtract and int->float convert are exact, so
  // the one mul rounds identically to the scalar expression.
  static void DequantAffine(const int* codes, size_t len, int zero, float scale,
                            float* out) {
    const __m256i zv = _mm256_set1_epi32(zero);
    const __m256 sv = _mm256_set1_ps(scale);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + i));
      const __m256 f = _mm256_cvtepi32_ps(_mm256_sub_epi32(c, zv));
      _mm256_storeu_ps(out + i, _mm256_mul_ps(f, sv));
    }
    for (; i < len; ++i) {
      out[i] = static_cast<float>(codes[i] - zero) * scale;
    }
  }

  // Jr = 8 interleave as 8x8 in-register transposes; remainder scalar.
  static void InterleaveQuant(const float* rowbuf, size_t stride, size_t len,
                              float* panel) {
    const size_t len8 = len & ~size_t{7};
    for (size_t c = 0; c < len8; c += 8) {
      __m256 r0 = _mm256_loadu_ps(rowbuf + c);
      __m256 r1 = _mm256_loadu_ps(rowbuf + stride + c);
      __m256 r2 = _mm256_loadu_ps(rowbuf + 2 * stride + c);
      __m256 r3 = _mm256_loadu_ps(rowbuf + 3 * stride + c);
      __m256 r4 = _mm256_loadu_ps(rowbuf + 4 * stride + c);
      __m256 r5 = _mm256_loadu_ps(rowbuf + 5 * stride + c);
      __m256 r6 = _mm256_loadu_ps(rowbuf + 6 * stride + c);
      __m256 r7 = _mm256_loadu_ps(rowbuf + 7 * stride + c);
      Transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7);
      float* dst = panel + c * kQuantJr;
      _mm256_storeu_ps(dst + 0 * kQuantJr, r0);
      _mm256_storeu_ps(dst + 1 * kQuantJr, r1);
      _mm256_storeu_ps(dst + 2 * kQuantJr, r2);
      _mm256_storeu_ps(dst + 3 * kQuantJr, r3);
      _mm256_storeu_ps(dst + 4 * kQuantJr, r4);
      _mm256_storeu_ps(dst + 5 * kQuantJr, r5);
      _mm256_storeu_ps(dst + 6 * kQuantJr, r6);
      _mm256_storeu_ps(dst + 7 * kQuantJr, r7);
    }
    for (size_t c = len8; c < len; ++c) {
      for (size_t t = 0; t < kQuantJr; ++t) {
        panel[c * kQuantJr + t] = rowbuf[t * stride + c];
      }
    }
  }

  static void QuantInner(const float* x, const float* panel, size_t len,
                         float* acc) {
    __m256 accv = _mm256_loadu_ps(acc);
    for (size_t c = 0; c < len; ++c) {
      const __m256 xv = _mm256_set1_ps(x[c]);
      accv = _mm256_add_ps(
          accv, _mm256_mul_ps(xv, _mm256_loadu_ps(panel + c * kQuantJr)));
    }
    _mm256_storeu_ps(acc, accv);
  }

  // 8 activation-row chains (lanes); per kept slot, gather the 8 rows' x
  // values at column cols[kk] and broadcast the dequantized weight.
  static void SparseInner(const float* x0, size_t stride, const int* cols,
                          const float* vals, size_t len, float* acc) {
    const __m256i roff =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int>(stride)));
    __m256 accv = _mm256_loadu_ps(acc);
    for (size_t kk = 0; kk < len; ++kk) {
      const __m256i idx = _mm256_add_epi32(roff, _mm256_set1_epi32(cols[kk]));
      const __m256 xv = _mm256_i32gather_ps(x0, idx, 4);
      accv = _mm256_add_ps(accv, _mm256_mul_ps(xv, _mm256_set1_ps(vals[kk])));
    }
    _mm256_storeu_ps(acc, accv);
  }

  // 16 output-column chains (two ymm halves) over a 2:4 panel. A code word
  // vector holds 32 / kBits consecutive slots of 8 rows, an index word vector
  // 16 slots' positions: each slot is an immediate shift and a mask. The x
  // value at position pos of the slot's 4-column group comes from a broadcast
  // of that group and an in-lane permute (low 2 bits select) — no gather.
  // With kWithBase, the base chain over the dense panel `base` advances by
  // the same 4 columns at the first slot of each group, so the two
  // independent chains overlap.
  template <int kBits, bool kWithBase>
  static void PanelChains(const float* x, const float* base,
                          const Sparse24Matrix::Panel& p, float* out) {
    constexpr int kPerWord = 32 / kBits;
    const __m256i mask = _mm256_set1_epi32((1 << kBits) - 1);
    const __m256i three = _mm256_set1_epi32(3);
    const uint32_t* codes = p.codes;
    const uint32_t* indices = p.indices;
    const int32_t* zeros = p.zeros;
    const float* scales = p.scales;
    const auto load_i = [](const void* ptr) {
      return _mm256_loadu_si256(static_cast<const __m256i*>(ptr));
    };
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 base0 = _mm256_setzero_ps();
    __m256 base1 = _mm256_setzero_ps();
    __m256i zero0 = load_i(zeros);
    __m256i zero1 = load_i(zeros + 8);
    __m256 scale0 = _mm256_loadu_ps(scales);
    __m256 scale1 = _mm256_loadu_ps(scales + 8);
    __m256i iw0 = _mm256_setzero_si256();
    __m256i iw1 = _mm256_setzero_si256();
    int group_left = p.group_size;
    for (int kk = 0; kk < p.kept;) {
      __m256i cw0 = load_i(codes);
      __m256i cw1 = load_i(codes + 8);
      codes += kPanelRows;
      for (int s = 0; s < kPerWord && kk < p.kept; ++s, ++kk) {
        if (group_left == 0) {
          zeros += kPanelRows;
          scales += kPanelRows;
          zero0 = load_i(zeros);
          zero1 = load_i(zeros + 8);
          scale0 = _mm256_loadu_ps(scales);
          scale1 = _mm256_loadu_ps(scales + 8);
          group_left = p.group_size;
        }
        --group_left;
        if ((kk & 15) == 0) {
          iw0 = load_i(indices);
          iw1 = load_i(indices + 8);
          indices += kPanelRows;
        }
        const float* xg = x + (kk >> 1) * 4;
        if (kWithBase && (kk & 1) == 0) {
          const float* bg = base + static_cast<size_t>(kk >> 1) * 4 * kPanelRows;
          for (int c = 0; c < 4; ++c) {
            const __m256 xc = _mm256_set1_ps(xg[c]);
            base0 = _mm256_add_ps(
                base0, _mm256_mul_ps(xc, _mm256_loadu_ps(bg + c * kPanelRows)));
            base1 = _mm256_add_ps(
                base1, _mm256_mul_ps(xc, _mm256_loadu_ps(bg + c * kPanelRows + 8)));
          }
        }
        const __m256i q0 = _mm256_and_si256(cw0, mask);
        const __m256i q1 = _mm256_and_si256(cw1, mask);
        cw0 = _mm256_srli_epi32(cw0, kBits);
        cw1 = _mm256_srli_epi32(cw1, kBits);
        const __m256i pos0 = _mm256_and_si256(iw0, three);
        const __m256i pos1 = _mm256_and_si256(iw1, three);
        iw0 = _mm256_srli_epi32(iw0, 2);
        iw1 = _mm256_srli_epi32(iw1, 2);
        const __m256 xb = _mm256_broadcast_ps(reinterpret_cast<const __m128*>(xg));
        const __m256 v0 = _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_sub_epi32(q0, zero0)), scale0);
        const __m256 v1 = _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_sub_epi32(q1, zero1)), scale1);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(_mm256_permutevar_ps(xb, pos0), v0));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(_mm256_permutevar_ps(xb, pos1), v1));
      }
    }
    _mm256_storeu_ps(out, kWithBase ? _mm256_add_ps(base0, acc0) : acc0);
    _mm256_storeu_ps(out + 8, kWithBase ? _mm256_add_ps(base1, acc1) : acc1);
  }

  template <bool kWithBase>
  static void Panel(const float* x, const float* base,
                    const Sparse24Matrix::Panel& p, float* out) {
    if (p.kept == 0) {
      std::fill(out, out + kPanelRows, 0.0f);
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
      // Every 32-byte source chunk was finalized before this copy started.
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
    ScalarOps::CopyMatch(dst, dist, len);  // overlapped: byte-exact 8B/1B path
  }
};

}  // namespace

const Backend* GetAvx2Backend() {
  return MakeBackendTable<Avx2Ops>("avx2", "AVX2 (8-wide fp32)");
}

}  // namespace kernels
}  // namespace dz

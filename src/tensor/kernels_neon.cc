// NEON kernel backend for arm64. Compiled only when the target has NEON
// (baseline on aarch64), with -ffp-contract=off.
//
// vmlaq_f32 is deliberately avoided: compilers may lower it to fused fmla,
// which rounds once and would break bit-identity with the scalar backend.
// Every multiply-accumulate is an explicit vmulq + vaddq pair, one independent
// output element per lane, k-terms in ascending order.
#include "src/tensor/kernels_generic.h"

#if !defined(__ARM_NEON) && !defined(__ARM_NEON__)
#error "kernels_neon.cc must be compiled for a NEON-capable target"
#endif

#include <arm_neon.h>

namespace dz {
namespace kernels {
namespace {

struct NeonOps {
  static constexpr int kWidth = 4;
  static constexpr size_t kQuantJr = 4;
  static constexpr size_t kSparseRows = 4;

  // 4x16 NT micro-kernel: 4 q-register accumulators per output row.
  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    float32x4_t acc[kMicroRows][4];
    for (size_t t = 0; t < kMicroRows; ++t) {
      for (size_t q = 0; q < 4; ++q) {
        acc[t][q] = vdupq_n_f32(0.0f);
      }
    }
    const float* arows[kMicroRows] = {arow0, arow1, arow2, arow3};
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      float32x4_t bv[4];
      for (size_t q = 0; q < 4; ++q) {
        bv[q] = vld1q_f32(brow + q * 4);
      }
      for (size_t t = 0; t < kMicroRows; ++t) {
        const float32x4_t av = vdupq_n_f32(arows[t][p]);
        for (size_t q = 0; q < 4; ++q) {
          acc[t][q] = vaddq_f32(acc[t][q], vmulq_f32(av, bv[q]));
        }
      }
    }
    for (size_t t = 0; t < kMicroRows; ++t) {
      for (size_t q = 0; q < 4; ++q) {
        vst1q_f32(out + t * kMicroCols + q * 4, acc[t][q]);
      }
    }
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    float32x4_t acc[4];
    for (size_t q = 0; q < 4; ++q) {
      acc[q] = vdupq_n_f32(0.0f);
    }
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const float32x4_t av = vdupq_n_f32(arow[p]);
      for (size_t q = 0; q < 4; ++q) {
        acc[q] = vaddq_f32(acc[q], vmulq_f32(av, vld1q_f32(brow + q * 4)));
      }
    }
    for (size_t q = 0; q < 4; ++q) {
      vst1q_f32(out + q * 4, acc[q]);
    }
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    const float32x4_t vv = vdupq_n_f32(v);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(y + i,
                vaddq_f32(vld1q_f32(y + i), vmulq_f32(vv, vld1q_f32(x + i))));
    }
    for (; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  static void Rank1x4(float v0, float v1, float v2, float v3, const float* b,
                      float* c0, float* c1, float* c2, float* c3, size_t n) {
    const float32x4_t w0 = vdupq_n_f32(v0);
    const float32x4_t w1 = vdupq_n_f32(v1);
    const float32x4_t w2 = vdupq_n_f32(v2);
    const float32x4_t w3 = vdupq_n_f32(v3);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float32x4_t bv = vld1q_f32(b + j);
      vst1q_f32(c0 + j, vaddq_f32(vld1q_f32(c0 + j), vmulq_f32(w0, bv)));
      vst1q_f32(c1 + j, vaddq_f32(vld1q_f32(c1 + j), vmulq_f32(w1, bv)));
      vst1q_f32(c2 + j, vaddq_f32(vld1q_f32(c2 + j), vmulq_f32(w2, bv)));
      vst1q_f32(c3 + j, vaddq_f32(vld1q_f32(c3 + j), vmulq_f32(w3, bv)));
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
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
    }
    for (; i < n; ++i) {
      y[i] += x[i];
    }
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(y + i, vsubq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
    }
    for (; i < n; ++i) {
      y[i] -= x[i];
    }
  }

  static void Scale(float* y, float s, size_t n) {
    const float32x4_t sv = vdupq_n_f32(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), sv));
    }
    for (; i < n; ++i) {
      y[i] *= s;
    }
  }

  // Vector affine decode: int subtract and int->float convert are exact, so
  // the one mul rounds identically to the scalar expression.
  static void DequantAffine(const int* codes, size_t len, int zero, float scale,
                            float* out) {
    const int32x4_t zv = vdupq_n_s32(zero);
    const float32x4_t sv = vdupq_n_f32(scale);
    size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      const int32x4_t c = vld1q_s32(codes + i);
      const float32x4_t f = vcvtq_f32_s32(vsubq_s32(c, zv));
      vst1q_f32(out + i, vmulq_f32(f, sv));
    }
    for (; i < len; ++i) {
      out[i] = static_cast<float>(codes[i] - zero) * scale;
    }
  }

  static void InterleaveQuant(const float* rowbuf, size_t stride, size_t len,
                              float* panel) {
    ScalarOps::InterleaveQuant(rowbuf, stride, len, panel);
  }

  static void QuantInner(const float* x, const float* panel, size_t len,
                         float* acc) {
    float32x4_t accv = vld1q_f32(acc);
    for (size_t c = 0; c < len; ++c) {
      const float32x4_t xv = vdupq_n_f32(x[c]);
      accv = vaddq_f32(accv, vmulq_f32(xv, vld1q_f32(panel + c * kQuantJr)));
    }
    vst1q_f32(acc, accv);
  }

  // No NEON gather: 4 interleaved scalar chains (same shape as ScalarOps).
  static void SparseInner(const float* x0, size_t stride, const int* cols,
                          const float* vals, size_t len, float* acc) {
    ScalarOps::SparseInner(x0, stride, cols, vals, len, acc);
  }

  // 16 output-column chains (four q registers) over a 2:4 panel. Each slot
  // is an immediate shift and a mask of the code and index word vectors; the
  // x value at position pos of the slot's 4-column group is a byte table
  // lookup into that group (lane bytes 4*pos .. 4*pos + 3) — no gather.
  template <int kBits>
  static void SparsePanelBits(const float* x, const Sparse24Matrix::Panel& p,
                              float* out) {
    constexpr int kPerWord = 32 / kBits;
    const uint32x4_t mask = vdupq_n_u32((1u << kBits) - 1u);
    const uint32x4_t three = vdupq_n_u32(3u);
    const uint32x4_t byte_splat = vdupq_n_u32(0x04040404u);
    const uint32x4_t byte_offsets = vdupq_n_u32(0x03020100u);
    const uint32_t* codes = p.codes;
    const uint32_t* indices = p.indices;
    const int32_t* zeros = p.zeros;
    const float* scales = p.scales;
    float32x4_t acc[4];
    int32x4_t zero[4];
    float32x4_t scale[4];
    uint32x4_t iw[4];
    for (int q = 0; q < 4; ++q) {
      acc[q] = vdupq_n_f32(0.0f);
      zero[q] = vld1q_s32(zeros + q * 4);
      scale[q] = vld1q_f32(scales + q * 4);
      iw[q] = vdupq_n_u32(0u);
    }
    int group_left = p.group_size;
    for (int kk = 0; kk < p.kept;) {
      uint32x4_t cw[4];
      for (int q = 0; q < 4; ++q) {
        cw[q] = vld1q_u32(codes + q * 4);
      }
      codes += kPanelRows;
      for (int s = 0; s < kPerWord && kk < p.kept; ++s, ++kk) {
        if (group_left == 0) {
          zeros += kPanelRows;
          scales += kPanelRows;
          for (int q = 0; q < 4; ++q) {
            zero[q] = vld1q_s32(zeros + q * 4);
            scale[q] = vld1q_f32(scales + q * 4);
          }
          group_left = p.group_size;
        }
        --group_left;
        if ((kk & 15) == 0) {
          for (int q = 0; q < 4; ++q) {
            iw[q] = vld1q_u32(indices + q * 4);
          }
          indices += kPanelRows;
        }
        const uint8x16_t xg = vreinterpretq_u8_f32(vld1q_f32(x + (kk >> 1) * 4));
        for (int q = 0; q < 4; ++q) {
          const uint32x4_t code = vandq_u32(cw[q], mask);
          cw[q] = vshrq_n_u32(cw[q], kBits);
          const uint32x4_t pos = vandq_u32(iw[q], three);
          iw[q] = vshrq_n_u32(iw[q], 2);
          const uint32x4_t lanes =
              vaddq_u32(vmulq_u32(pos, byte_splat), byte_offsets);
          const float32x4_t xv = vreinterpretq_f32_u8(
              vqtbl1q_u8(xg, vreinterpretq_u8_u32(lanes)));
          const float32x4_t v = vmulq_f32(
              vcvtq_f32_s32(vsubq_s32(vreinterpretq_s32_u32(code), zero[q])),
              scale[q]);
          acc[q] = vaddq_f32(acc[q], vmulq_f32(xv, v));
        }
      }
    }
    for (int q = 0; q < 4; ++q) {
      vst1q_f32(out + q * 4, acc[q]);
    }
  }

  static void FusedPanel(const float* x, const float* base,
                         const Sparse24Matrix::Panel& p, float* out) {
    SequentialFusedPanel<NeonOps>(x, base, p, out);
  }

  static void SparsePanel(const float* x, const Sparse24Matrix::Panel& p,
                          float* out) {
    if (p.kept == 0) {
      ScalarOps::SparsePanel(x, p, out);
    } else if (p.bits == 2) {
      SparsePanelBits<2>(x, p, out);
    } else if (p.bits == 4) {
      SparsePanelBits<4>(x, p, out);
    } else {
      SparsePanelBits<8>(x, p, out);
    }
  }

  static void PackStrip16(const float* b0, size_t ldb, int k, float* panel) {
    ScalarOps::PackStrip16(b0, ldb, k, panel);  // pure data movement
  }

  static size_t MatchLen(const uint8_t* a, const uint8_t* b, size_t max) {
    return ScalarOps::MatchLen(a, b, max);  // 8-byte word probes
  }

  static void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
    if (dist >= 16) {
      const uint8_t* src = dst - dist;
      size_t i = 0;
      for (; i + 16 <= len; i += 16) {
        vst1q_u8(dst + i, vld1q_u8(src + i));
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

const Backend* GetNeonBackend() {
  return MakeBackendTable<NeonOps>("neon", "NEON (4-wide fp32)");
}

}  // namespace kernels
}  // namespace dz

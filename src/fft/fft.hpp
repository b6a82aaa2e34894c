#pragma once
// Fast Fourier transforms.
//
// Fig 7(a) compares radially averaged spatial power spectra of downscaled
// temperature fields, and the synthetic data pipeline shapes its random
// fields in Fourier space, so both need a 2-D FFT. The core is a lines
// transform: many same-length 1-D transforms run side by side, an iterative
// radix-2 Cooley-Tukey for power-of-two lengths and Bluestein's chirp-z
// algorithm for any other length, with every butterfly applied to all lanes
// by one simd primitive call. The 1-D and 2-D transforms and the radial
// power-spectral-density helper are built on it.

#include <complex>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace orbit2 {

using Complex = std::complex<double>;

/// In-place FFTs of `lanes` independent lines of n points each, where
/// element j of lane l sits at base[j * lanes + l] (radix-2 when n is a
/// power of two, Bluestein otherwise). `inverse` applies the conjugate
/// transform and the 1/n normalization. The plan is resolved with one cache
/// lookup per call. Blocks of lanes run through the kernel layer; each lane
/// sees exactly the arithmetic of a one-line transform, so results are
/// bit-identical for any lane count and thread count.
void fft_lines(Complex* base, std::int64_t n, std::int64_t lanes,
               bool inverse);

/// In-place FFT of arbitrary length: fft_lines with one lane.
void fft(std::vector<Complex>& data, bool inverse);

/// Out-of-place convenience wrapper.
std::vector<Complex> fft_copy(const std::vector<Complex>& data, bool inverse);

/// 2-D FFT of a [H, W] real field; returns H*W complex coefficients in
/// row-major layout. Row transforms, then column transforms, each one
/// fft_lines pass: columns in place (lanes = W), rows on a transposed copy
/// of each block of rows in per-thread scratch (lanes = the block's rows).
/// Lane blocks are the parallel work items, so results are bit-identical
/// for any thread count. One path serves every grid size.
std::vector<Complex> fft2d(const Tensor& field);

/// In-place inverse 2-D FFT of H*W row-major coefficients: inverse row
/// transforms then inverse column transforms, each with the 1/n
/// normalization (so the composition with fft2d is the identity up to
/// rounding). Shared by every consumer that synthesizes fields in Fourier
/// space; parallelized like fft2d with the same bit-identical guarantee.
void ifft2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w);

/// ifft2d + real-part extraction into a [H, W] tensor (imaginary residue is
/// discarded; callers apply conjugate-symmetric filters for which it is
/// numerical noise).
Tensor ifft2d_real(std::vector<Complex>& coeffs, std::int64_t h,
                   std::int64_t w);

/// Radially averaged power spectral density of a [H, W] field: bin k holds
/// the mean |F|^2 over all wavenumbers with round(sqrt(kx^2+ky^2)) == k,
/// for k in [0, min(H,W)/2]. The DC bin is included as bin 0.
std::vector<double> radial_power_spectrum(const Tensor& field);

}  // namespace orbit2

/* The fused PCG32 + Marsaglia polar loop behind Rng.Fast.add_gaussians.

   Every operation mirrors rng.ml's [uint32], [float] and [polar_pair]
   step for step, in the same order and the same IEEE double
   arithmetic, so the stream is bit-identical to Rng.gaussian:
   - the dune stanza builds this file with -ffp-contract=off, so no
     multiply-add is fused into an FMA (which rounds once instead of
     twice);
   - log is the same libm function OCaml's [log] calls;
   - sqrt is correctly rounded by IEEE 754, in C as in OCaml.

   The native stubs never allocate and never raise ([@@noalloc] on the
   OCaml side).  Indices are not checked: callers guarantee they lie
   within the noise array. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

#define PCG_MULTIPLIER 6364136223846793005ULL

/* PCG-XSH-RR step from [state]: the output of the current state, then
   the state advanced (same as rng.ml's [uint32]). */
static inline double pcg_float(uint64_t *state, uint64_t increment)
{
  uint64_t s = *state;
  uint64_t xorshifted, rotated;
  unsigned rot;
  *state = s * PCG_MULTIPLIER + increment;
  xorshifted = (((s >> 18) ^ s) >> 27) & 0xFFFFFFFFULL;
  rot = (unsigned)(s >> 59);
  rotated = ((xorshifted >> rot) | (xorshifted << (32 - rot))) & 0xFFFFFFFFULL;
  return (double)rotated * 0x1p-32;
}

static inline void add_at(value noise, value targets, mlsize_t t, double x)
{
  mlsize_t idx = Long_val(Field(targets, t));
  Store_double_flat_field(noise, idx, Double_flat_field(noise, idx) + x);
}

/* The Fast mirror: fast = [| state; increment; has_spare; spare |]
   (int64 Bigarray), the spare stored as the bits of a double. */

static inline double spare_get(const int64_t *words)
{
  double z;
  memcpy(&z, &words[3], sizeof z);
  return z;
}

static inline void spare_set(int64_t *words, double z)
{
  memcpy(&words[3], &z, sizeof z);
  words[2] = 1;
}

double nanodec_rng_fast_float(value fast)
{
  int64_t *words = (int64_t *)Caml_ba_data_val(fast);
  uint64_t state = (uint64_t)words[0];
  double x = pcg_float(&state, (uint64_t)words[1]);
  words[0] = (int64_t)state;
  return x;
}

value nanodec_rng_fast_float_byte(value fast)
{
  return caml_copy_double(nanodec_rng_fast_float(fast));
}

value nanodec_rng_add_gaussians(value fast, double sigma, value targets,
                                value noise)
{
  int64_t *words = (int64_t *)Caml_ba_data_val(fast);
  uint64_t state = (uint64_t)words[0];
  uint64_t increment = (uint64_t)words[1];
  mlsize_t n = Wosize_val(targets);
  mlsize_t t = 0;

  if (n == 0) return Val_unit;
  if (words[2] != 0) {
    words[2] = 0;
    add_at(noise, targets, 0, sigma * spare_get(words));
    t = 1;
  }
  while (t < n) {
    double u = (2. * pcg_float(&state, increment)) - 1.;
    double v = (2. * pcg_float(&state, increment)) - 1.;
    double s = (u * u) + (v * v);
    if (s < 1. && s != 0.) {
      double factor = sqrt(-2. * log(s) / s);
      add_at(noise, targets, t, sigma * (u * factor));
      t++;
      if (t < n) {
        add_at(noise, targets, t, sigma * (v * factor));
        t++;
      } else {
        /* Odd run: cache the raw second variate, as Rng.gaussian does. */
        spare_set(words, v * factor);
      }
    }
  }
  words[0] = (int64_t)state;
  return Val_unit;
}

value nanodec_rng_add_gaussians_byte(value fast, value sigma, value targets,
                                     value noise)
{
  return nanodec_rng_add_gaussians(fast, Double_val(sigma), targets, noise);
}

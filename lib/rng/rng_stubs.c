/* The fused PCG32 + Marsaglia polar loop behind Rng.add_gaussians, and
   Rng.float.

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

#define PCG_MULTIPLIER 6364136223846793005ULL

/* Accepted polar points per pipelined batch. */
#define BATCH 64

/* The generator: one bytes block of four native int64 words,
   [| state; increment; has_spare; spare |], the spare stored as the
   bits of a double (rng.ml's layout). */
#define WORDS(rng) ((int64_t *)Bytes_val(rng))

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

double nanodec_rng_float(value rng)
{
  int64_t *words = WORDS(rng);
  uint64_t state = (uint64_t)words[0];
  double x = pcg_float(&state, (uint64_t)words[1]);
  words[0] = (int64_t)state;
  return x;
}

value nanodec_rng_float_byte(value rng)
{
  return caml_copy_double(nanodec_rng_float(rng));
}

/* Pipelined in three phases per batch, so the latency-bound
   log -> div -> sqrt chains of independent points overlap instead of
   running back to back behind a mispredicted acceptance branch:
   1. draw exactly the accepted points the batch needs (a rejected
      point's slot is overwritten by the next attempt, so the PCG draws
      are those of the one-point-at-a-time loop);
   2. compute every accepted point's factor sqrt(-2 log s / s);
   3. scatter sigma * (u * factor) and sigma * (v * factor) in target
      order; an odd run caches the last raw v * factor as the spare,
      as Rng.gaussian does. */
value nanodec_rng_add_gaussians(value rng, double sigma, value targets,
                                value noise)
{
  int64_t *words = WORDS(rng);
  uint64_t state = (uint64_t)words[0];
  uint64_t increment = (uint64_t)words[1];
  mlsize_t n = Wosize_val(targets);
  mlsize_t t = 0;
  double us[BATCH], vs[BATCH], factors[BATCH];

  if (n == 0) return Val_unit;
  if (words[2] != 0) {
    words[2] = 0;
    add_at(noise, targets, 0, sigma * spare_get(words));
    t = 1;
  }
  while (t < n) {
    mlsize_t pairs = (n - t + 1) / 2;
    mlsize_t k = 0, j;
    if (pairs > BATCH) pairs = BATCH;
    while (k < pairs) {
      double u = (2. * pcg_float(&state, increment)) - 1.;
      double v = (2. * pcg_float(&state, increment)) - 1.;
      double s = (u * u) + (v * v);
      us[k] = u;
      vs[k] = v;
      factors[k] = s;
      k += (mlsize_t)((s < 1.) & (s != 0.));
    }
    for (j = 0; j < pairs; j++) {
      double s = factors[j];
      factors[j] = sqrt(-2. * log(s) / s);
    }
    for (j = 0; j < pairs; j++) {
      add_at(noise, targets, t, sigma * (us[j] * factors[j]));
      t++;
      if (t < n) {
        add_at(noise, targets, t, sigma * (vs[j] * factors[j]));
        t++;
      } else {
        spare_set(words, vs[j] * factors[j]);
      }
    }
  }
  words[0] = (int64_t)state;
  return Val_unit;
}

value nanodec_rng_add_gaussians_byte(value rng, value sigma, value targets,
                                     value noise)
{
  return nanodec_rng_add_gaussians(rng, Double_val(sigma), targets, noise);
}

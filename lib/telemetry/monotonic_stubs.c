/* CLOCK_MONOTONIC in seconds: the telemetry sinks' default clock.
   Unlike the wall clock it never steps (NTP, manual resets), so span
   durations are true elapsed time. */

#define CAML_NAME_SPACE
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double nanodec_telemetry_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value nanodec_telemetry_monotonic_s_byte(value unit)
{
  return caml_copy_double(nanodec_telemetry_monotonic_s(unit));
}

// Host-speed reference: a fixed discrete-event kernel that shares no code with the simulator.
//
// The benchmark's host is shared, and the speed of simulator-like code on it drifts by tens of
// percent over minutes. run.py pins itself and every driver child to one CPU and times this
// kernel there between measured runs (perfbench/README.md has the measurements).
// Host times are then reported at a nominal host speed: measured CPU seconds times (nominal pass
// time / pass time observed around the run). A change to the simulator cannot move the kernel,
// so it cannot hide in the scaling.
#ifndef DFIL_PERFBENCH_CALIBRATE_H_
#define DFIL_PERFBENCH_CALIBRATE_H_

namespace perfbench {

// CPU seconds of one kernel pass: the median of `passes` timed passes after a warm-up pass.
double CalibrationPassSeconds(int passes);

}  // namespace perfbench

#endif  // DFIL_PERFBENCH_CALIBRATE_H_

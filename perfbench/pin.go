package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set for up to 1024 CPUs.
type cpuMask [16]uint64

func affinity(op uintptr, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// startPinned starts cmd on cpu alone, or unpinned if cpu < 0. A child
// inherits the CPU set of the thread that forks it, so the fork runs on
// a locked thread pinned to cpu for the moment. That keeps a taskset
// exec out of the timed set-up.
func startPinned(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 {
		return cmd.Start()
	}
	errc := make(chan error, 1)
	go func() {
		// A goroutine that ends locked takes its thread with it, so a
		// thread still pinned to cpu is never reused.
		runtime.LockOSThread()
		errc <- startOnCPU(cmd, cpu)
	}()
	return <-errc
}

// startOnCPU runs on a locked thread; it unlocks the thread only once
// the thread's CPU set is restored.
func startOnCPU(cmd *exec.Cmd, cpu int) error {
	var old, pinned cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	pinned[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &pinned); err != nil {
		return fmt.Errorf("pin to cpu %d: %w", cpu, err)
	}
	startErr := cmd.Start()
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &old); err != nil {
		if startErr == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return fmt.Errorf("restore cpu set: %w", err)
	}
	runtime.UnlockOSThread()
	return startErr
}

// cpusAllowed is the Cpus_allowed_list of /proc/<pid>/status, where pid
// may be "self".
func cpusAllowed(pid string) string {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return "?"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "?"
}

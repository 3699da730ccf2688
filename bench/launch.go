package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/ckpt"
)

// Linux seeds a spawned process's ru_maxrss with the RSS high-water
// mark of the address space it was spawned from, so a child can never
// report a smaller peak than its parent's. This process generates
// datasets, verifies responses and runs the traced pass: its peak sits
// above what the programs under test use, and every RSS reading taken
// through it would be its own. Timed children are therefore started by
// a launcher: this same binary, re-executed with launchEnv set, which
// does nothing but start the child, time it, wait for it, and write
// what it saw. A fresh launcher peaks at a few megabytes, far below any
// program under test, and it reports that floor so the harness can
// check it.

// launchEnv names the report file; set, it makes this process a
// launcher for the command in its arguments.
const launchEnv = "BENCH_LAUNCH_REPORT"

// launchReport is what the launcher saw of its child.
type launchReport struct {
	WallS   float64 `json:"wall_s"`
	RSSMB   float64 `json:"rss_mb"`   // the child's ru_maxrss
	FloorMB float64 `json:"floor_mb"` // the launcher's own peak: the least rss_mb can read
	Exit    int     `json:"exit"`
}

func init() {
	if report := os.Getenv(launchEnv); report != "" {
		os.Exit(launcherMain(report, os.Args[1:]))
	}
}

// launcherMain runs argv with this process's stdio and environment
// (minus launchEnv), and exits with the child's status.
func launcherMain(report string, argv []string) int {
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "bench launcher: no command")
		return 2
	}
	os.Unsetenv(launchEnv)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	rep := launchReport{WallS: time.Since(start).Seconds()}
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		rep.Exit = max(exit.ExitCode(), 1) // -1: killed by a signal
	default:
		fmt.Fprintln(os.Stderr, "bench launcher:", err)
		return 2
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rep.FloorMB, _ = peakRSSMB(os.Getpid())
	werr := ckpt.AtomicWrite(report, func(w io.Writer) error { return json.NewEncoder(w).Encode(rep) })
	if werr != nil {
		fmt.Fprintln(os.Stderr, "bench launcher:", werr)
		return 2
	}
	return rep.Exit
}

// launched runs cmd through a launcher and returns its report. cmd's
// Path, Args, Env and stdio are used as they are.
func launched(cmd *exec.Cmd, report string) (launchReport, error) {
	self, err := os.Executable()
	if err != nil {
		return launchReport{}, err
	}
	if err := os.Remove(report); err != nil && !errors.Is(err, os.ErrNotExist) {
		return launchReport{}, err
	}
	cmd.Args = append([]string{self}, cmd.Args...)
	cmd.Args[1] = cmd.Path
	cmd.Path = self
	cmd.Env = append(cmd.Env, launchEnv+"="+report)
	runErr := cmd.Run()
	data, err := os.ReadFile(report)
	if err != nil {
		return launchReport{}, errors.Join(runErr, err)
	}
	var rep launchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("launcher report: %w", err)
	}
	if runErr != nil {
		return rep, runErr
	}
	if rep.RSSMB <= rep.FloorMB {
		return rep, fmt.Errorf("child peak RSS %.1f MB is not above the launcher's %.1f MB: the reading is the launcher's", rep.RSSMB, rep.FloorMB)
	}
	return rep, nil
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB reads a live process's RSS high-water mark from /proc: its
// own address space's, whatever it was spawned from.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	m := vmHWM.FindSubmatch(data)
	if m == nil {
		return 0, errors.New("no VmHWM in /proc status")
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, err
}

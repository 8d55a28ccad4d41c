package harness

import (
	"bytes"
	"fmt"
	"strconv"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports; reading
// sysconf would need cgo.
const clockTicksPerSecond = 100

// parseStatCPU extracts utime+stime (fields 14 and 15) in seconds. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(raw []byte) (float64, error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, fmt.Errorf("harness: malformed /proc stat line")
	}
	fields := bytes.Fields(raw[end+1:])
	// fields[0] is field 3 (state), so utime is fields[11], stime fields[12].
	if len(fields) < 13 {
		return 0, fmt.Errorf("harness: /proc stat line has %d fields after the command", len(fields))
	}
	utime, err := strconv.ParseInt(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("harness: utime: %w", err)
	}
	stime, err := strconv.ParseInt(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("harness: stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseStatusHWM extracts VmHWM (peak resident set) in bytes.
func parseStatusHWM(raw []byte) (int64, error) {
	for _, line := range bytes.Split(raw, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("harness: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("harness: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("harness: no VmHWM in /proc status")
}

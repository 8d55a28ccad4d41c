package harness

import (
	"os"
	"strings"
	"testing"
)

const exposition = `# HELP svqact_detect_inferences_total Model inferences.
# TYPE svqact_detect_inferences_total counter
svqact_detect_inferences_total{kind="action"} 7515
svqact_detect_inferences_total{kind="object"} 37650
svqact_detect_inferences_total_bogus 1
svqact_queries_served_total 3
svqact_query_duration_seconds_bucket{le="+Inf"} 3
svqact_query_duration_seconds_sum 0.222696947
svqact_label_with_space{sql="a b} c"} 2 1700000000
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.Family("svqact_detect_inferences_total"); got != 45165 {
		t.Errorf("family sum = %v, want 45165 (the _bogus series must not count)", got)
	}
	if got := before[`svqact_label_with_space{sql="a b} c"}`]; got != 2 {
		t.Errorf("series with a space and a brace in its label value = %v, want 2", got)
	}
	after, err := ParseProm(strings.NewReader(strings.ReplaceAll(exposition, "37650", "37700") + "svqact_new_total 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta(before, after)
	if d.Family("svqact_detect_inferences_total") != 50 || d["svqact_new_total"] != 4 || d["svqact_queries_served_total"] != 0 {
		t.Errorf("delta = %v", d)
	}
	if s := Sum(before, after); s["svqact_queries_served_total"] != 6 {
		t.Errorf("sum = %v", s["svqact_queries_served_total"])
	}
	if _, err := ParseProm(strings.NewReader("svqact_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestProcfsParsers(t *testing.T) {
	// The command name holds spaces and parentheses; utime 250, stime 50.
	stat := []byte("4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 7 0 100 1800000000 4000 18446744073709551615")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3 {
		t.Errorf("cpu = %v, %v; want 3 s", cpu, err)
	}
	hwm, err := parseStatusHWM([]byte("Name:\tserve\nVmPeak:\t 1825668 kB\nVmHWM:\t   17408 kB\nVmRSS:\t 16000 kB\n"))
	if err != nil || hwm != 17408<<10 {
		t.Errorf("hwm = %v, %v", hwm, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	// And the live files of this very process.
	if c, err := CPUSeconds(os.Getpid()); err != nil || c < 0 {
		t.Errorf("own CPU = %v, %v", c, err)
	}
	if b, err := PeakRSSBytes(os.Getpid()); err != nil || b <= 0 {
		t.Errorf("own peak RSS = %v, %v", b, err)
	}
	if !Alive(os.Getpid()) {
		t.Error("this process is not alive")
	}
}

func TestFreeAddrIsBindable(t *testing.T) {
	a, err := FreeAddr()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(a, "127.0.0.1:") {
		t.Errorf("address %q is not loopback", a)
	}
}

package harness

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Samples is one scrape of a Prometheus text exposition: series (name plus
// its label block exactly as printed, e.g. `x_total{kind="a"}`) to value.
type Samples map[string]float64

// ParseProm reads the text exposition format (version 0.0.4): comment and
// blank lines are skipped, every other line is `series value [timestamp]`.
// A label value may contain spaces, so the series ends at the closing brace
// when there is one.
func ParseProm(r io.Reader) (Samples, error) {
	out := Samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		split := strings.LastIndexByte(line, '}') + 1
		if split == 0 {
			split = strings.IndexByte(line, ' ')
			if split < 0 {
				return nil, fmt.Errorf("harness: metrics line without a value: %q", line)
			}
		}
		series := line[:split]
		rest := strings.Fields(line[split:])
		if len(rest) == 0 {
			return nil, fmt.Errorf("harness: metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return nil, fmt.Errorf("harness: metrics line %q: %w", line, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harness: reading metrics: %w", err)
	}
	return out, nil
}

// Scrape fetches and parses base+"/metrics".
func Scrape(client *http.Client, base string) (Samples, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("harness: scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: scraping %s: status %d", base, resp.StatusCode)
	}
	return ParseProm(resp.Body)
}

// Family sums every series of one metric family, whatever its labels:
// `name` itself and each `name{...}`.
func (s Samples) Family(name string) float64 {
	var sum float64
	for series, v := range s {
		if series == name || (strings.HasPrefix(series, name) && series[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}

// Delta returns after-before per series. Series absent before count from
// zero (a counter born during the interval); series that vanished are
// dropped.
func Delta(before, after Samples) Samples {
	out := make(Samples, len(after))
	for series, v := range after {
		out[series] = v - before[series]
	}
	return out
}

// Sum adds several scrapes series by series — the shards of one cluster.
func Sum(all ...Samples) Samples {
	out := Samples{}
	for _, s := range all {
		for series, v := range s {
			out[series] += v
		}
	}
	return out
}

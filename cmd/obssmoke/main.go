// Command obssmoke is the observability smoke test behind `make obs-smoke`:
// it launches cmd/threshold with -metrics-addr, scrapes the live /metrics
// endpoint while the sweep runs, and asserts that the core series — synth
// stage timings, Monte-Carlo shots/sec, the decoder syndrome-weight
// histogram and decode-path counters — exist and parse as Prometheus text.
//
// Usage:
//
//	obssmoke -bin ./bin/threshold
//
// Exit status 0 means every expected series was observed on a live scrape;
// anything else is a wiring regression (a layer stopped publishing, or the
// exposition format broke).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// wanted lists the series (name prefixes) that a healthy threshold run must
// expose, one per instrumented layer.
var wanted = []string{
	`span_seconds_total{span="synth.`, // synthesis stage timings
	"mc_shots_per_sec",                // Monte-Carlo engine gauge
	"mc_shots_total",                  // Monte-Carlo engine counter
	"decoder_blossom_total",           // decoder decode-path counters
	"decoder_syndrome_weight_count",   // decoder k-histogram
}

var addrRe = regexp.MustCompile(`serving metrics on http://(\S+)/metrics`)

// seriesRe matches one Prometheus text-format sample name (with optional
// labels), anchored so a malformed line cannot half-match.
var seriesRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})?$`)

func main() {
	var (
		bin     = flag.String("bin", "", "path to the threshold binary (required)")
		timeout = flag.Duration("timeout", 90*time.Second, "give up after this long")
	)
	flag.Parse()
	if *bin == "" {
		fail("usage: obssmoke -bin <threshold-binary>")
	}

	// A small but not instant sweep: the process must stay alive long enough
	// for a mid-run scrape, and every instrumented layer must get exercised.
	cmd := exec.Command(*bin,
		"-arch", "square", "-shots", "20000", "-p", "0.001,0.002",
		"-seed", "1", "-metrics-addr", "127.0.0.1:0")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fail("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fail("start %s: %v", *bin, err)
	}
	exited := make(chan error, 1)

	// Watch stderr for the bound-address banner; keep draining afterwards so
	// the child never blocks on a full pipe.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { exited <- cmd.Wait() }()

	deadline := time.After(*timeout)
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-exited:
		fail("threshold exited before serving metrics: %v", err)
	case <-deadline:
		kill(cmd, exited)
		fail("timed out waiting for the metrics banner")
	}
	fmt.Printf("obssmoke: scraping http://%s/metrics\n", addr)

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var missing []string
	for {
		select {
		case <-tick.C:
			body, err := scrape(addr)
			if err != nil {
				continue // server still coming up
			}
			var badLine error
			missing, badLine = check(body)
			if badLine != nil {
				kill(cmd, exited)
				fail("%v", badLine)
			}
			if missing == nil {
				fmt.Printf("obssmoke: all %d core series live and well-formed\n", len(wanted))
				kill(cmd, exited)
				return
			}
		case err := <-exited:
			fail("threshold exited (%v) before the scrape saw: %s", err, strings.Join(missing, ", "))
		case <-deadline:
			kill(cmd, exited)
			fail("timed out; still missing: %s", strings.Join(missing, ", "))
		}
	}
}

func scrape(addr string) (string, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// check validates every sample line of the exposition and returns the wanted
// series that have not appeared yet (nil when all are present), plus an
// error for any malformed line.
func check(body string) ([]string, error) {
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := splitSample(line)
		if !ok {
			return nil, fmt.Errorf("metrics line %d is not `name value`: %q", ln+1, line)
		}
		if !seriesRe.MatchString(name) {
			return nil, fmt.Errorf("metrics line %d has a malformed series name: %q", ln+1, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return nil, fmt.Errorf("metrics line %d has a malformed value %q: %v", ln+1, value, err)
		}
	}
	var missing []string
	for _, w := range wanted {
		if !strings.Contains(body, w) {
			missing = append(missing, w)
		}
	}
	return missing, nil
}

// splitSample cuts `name{labels} value` at the last space so spaces inside
// label values do not confuse the parse.
func splitSample(line string) (name, value string, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i <= 0 || i == len(line)-1 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// kill interrupts the child and waits for the already-running cmd.Wait
// goroutine to reap it, escalating to SIGKILL if it lingers.
func kill(cmd *exec.Cmd, exited <-chan error) {
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(os.Interrupt)
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obssmoke: "+format+"\n", args...)
	os.Exit(1)
}

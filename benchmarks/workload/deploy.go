package workload

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"svqact/benchmarks/harness"
	"svqact/internal/cluster"
	"svqact/internal/server"
)

// Deployment is a running instance of the system a workload is sent to.
type Deployment struct {
	// Entry is the base URL requests go to: the coordinator when there is
	// one, the single serve process otherwise.
	Entry string
	// Serves are the base URLs of the cmd/serve processes, whose /metrics
	// carry the detect, plan and rank counters.
	Serves []string
	// Coordinator is the coordinator's base URL, empty without one.
	Coordinator string

	procs []*harness.Proc
	// closers stop in-process servers (the smoke test's deployments).
	closers []func()
}

// PIDs lists the server processes; empty for in-process deployments.
func (d *Deployment) PIDs() []int {
	pids := make([]int, len(d.procs))
	for i, p := range d.procs {
		pids[i] = p.PID()
	}
	return pids
}

// drainGrace is how long a process gets to finish in-flight queries after
// SIGTERM before it is killed.
const drainGrace = 15 * time.Second

// Stop drains every process (coordinator first, so no scatter is in flight
// when its shards go away) and reports the first that did not exit cleanly.
func (d *Deployment) Stop() error {
	var errs []error
	for i := len(d.procs) - 1; i >= 0; i-- {
		errs = append(errs, d.procs[i].Stop(drainGrace))
	}
	for _, c := range d.closers {
		c()
	}
	d.procs, d.closers = nil, nil
	return errors.Join(errs...)
}

// Env locates the binaries and scratch space of a run.
type Env struct {
	// BinDir holds the built serve and coordinator binaries.
	BinDir string
	// OutDir receives the children's stderr (logs of clean runs are
	// removed) and the traced pass's span files.
	OutDir string
	// NProc is the connection and client count, and the fleet worker count.
	NProc int
}

// healthTimeout bounds how long a started process may take to answer
// /healthz.
const healthTimeout = 20 * time.Second

// Start launches the real processes of a workload: one cmd/serve, or Shards
// of them behind a cmd/coordinator, serving world w. repoDir is the ingested
// repository for ranked workloads (already split for sharded ones).
func Start(env Env, spec Spec, w *World, repoDir string, client *http.Client) (d *Deployment, err error) {
	d = &Deployment{}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.Stop())
			d = nil
		}
	}()
	serve := func(name string, extra ...string) (*harness.Proc, error) {
		addr, err := harness.FreeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-scale", fmt.Sprint(w.Scale), "-seed", fmt.Sprint(w.Seed)}
		if spec.Fleet {
			args = append(args, "-cascade", "-workers", fmt.Sprint(env.NProc))
		}
		p, err := harness.Start(name, filepath.Join(env.BinDir, "serve"), addr, env.OutDir, append(args, extra...)...)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.Serves = append(d.Serves, p.URL())
		return p, nil
	}
	switch {
	case spec.Sharded:
		var shardArgs []string
		for i, dir := range ShardDirs(repoDir) {
			name := fmt.Sprintf("s%d", i)
			p, err := serve(spec.Name+"-"+name, "-repo", dir, "-shard-name", name)
			if err != nil {
				return d, err
			}
			shardArgs = append(shardArgs, "-shard", name+"="+p.URL())
		}
		for _, p := range d.procs {
			if err := p.WaitHealthy(client, healthTimeout); err != nil {
				return d, err
			}
		}
		addr, err := harness.FreeAddr()
		if err != nil {
			return d, err
		}
		c, err := harness.Start(spec.Name+"-coordinator", filepath.Join(env.BinDir, "coordinator"), addr, env.OutDir,
			append([]string{"-addr", addr}, shardArgs...)...)
		if err != nil {
			return d, err
		}
		d.procs = append(d.procs, c)
		d.Coordinator, d.Entry = c.URL(), c.URL()
		return d, c.WaitHealthy(client, healthTimeout)
	case spec.Ranked:
		p, err := serve(spec.Name, "-repo", repoDir)
		if err != nil {
			return d, err
		}
		d.Entry = p.URL()
		return d, p.WaitHealthy(client, healthTimeout)
	}
	p, err := serve(spec.Name)
	if err != nil {
		return d, err
	}
	d.Entry = p.URL()
	return d, p.WaitHealthy(client, healthTimeout)
}

// StartInProcess serves a workload from httptest servers inside this
// process — the same handlers with no process boundary, for the smoke test.
func StartInProcess(spec Spec, w *World, repoDir string, nproc int) (d *Deployment, err error) {
	d = &Deployment{}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.Stop())
			d = nil
		}
	}()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	serve := func(cfg server.Config) (string, error) {
		cfg.Scale, cfg.Seed, cfg.Logger = w.Scale, w.Seed, quiet
		if spec.Fleet {
			cfg.Cascade, cfg.Workers = true, nproc
		}
		srv := server.New(cfg)
		if cfg.RepoDir != "" {
			if err := srv.Reload(); err != nil {
				return "", err
			}
		}
		ts := httptest.NewServer(srv.Handler())
		d.closers = append(d.closers, ts.Close)
		d.Serves = append(d.Serves, ts.URL)
		return ts.URL, nil
	}
	switch {
	case spec.Sharded:
		var shards []cluster.ShardSpec
		for i, dir := range ShardDirs(repoDir) {
			name := fmt.Sprintf("s%d", i)
			url, err := serve(server.Config{RepoDir: dir, ShardName: name})
			if err != nil {
				return d, err
			}
			shards = append(shards, cluster.ShardSpec{Name: name,
				Replicas: []cluster.Backend{cluster.NewHTTPBackend(name+"-r0", url, nil)}})
		}
		c, err := cluster.New(shards, cluster.Config{})
		if err != nil {
			return d, err
		}
		ts := httptest.NewServer(c.Handler())
		d.closers = append(d.closers, ts.Close)
		d.Coordinator, d.Entry = ts.URL, ts.URL
		return d, nil
	case spec.Ranked:
		d.Entry, err = serve(server.Config{RepoDir: repoDir})
		return d, err
	}
	d.Entry, err = serve(server.Config{})
	return d, err
}

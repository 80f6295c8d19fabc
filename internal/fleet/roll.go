package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// RollHooks are the per-backend actions a rolling upgrade runs while the
// pool holds that backend out of rotation. Each hook gets the backend's
// base URL; what "upgrade" means — restart a binary, point it at a new
// store — is the caller's business.
type RollHooks struct {
	// Upgrade performs the upgrade while the backend is drained.
	// Required.
	Upgrade func(ctx context.Context, url string) error
	// Verify checks the upgraded backend answers correctly (it runs
	// after the backend reports ready but before the pool readmits it,
	// so its queries must go to the backend directly). Optional; nil
	// skips verification.
	Verify func(ctx context.Context, url string) error
	// Rollback undoes a failed upgrade. It runs when Upgrade, the
	// readiness wait, or Verify fails; afterwards the roller waits for
	// readiness and re-verifies before readmitting. Optional; nil means
	// a failed backend stays out of rotation and the roll aborts.
	Rollback func(ctx context.Context, url string) error
	// ReadyTimeout bounds each wait for a backend to report ready
	// (default 30s).
	ReadyTimeout time.Duration
	// Log, when set, receives one line per state transition.
	Log func(format string, args ...any)
}

func (h RollHooks) log(format string, args ...any) {
	if h.Log != nil {
		h.Log(format, args...)
	}
}

// Roll upgrades every backend, one at a time: drain → upgrade → wait
// ready → verify → readmit. A backend that fails verification is rolled
// back (when a Rollback hook exists), re-verified, and readmitted on its
// old version; if even the rollback cannot be verified the backend stays
// out of rotation and the roll aborts — a halted upgrade with N-1
// backends serving beats a completed one serving wrong answers.
func (p *Pool) Roll(ctx context.Context, hooks RollHooks) error {
	if hooks.Upgrade == nil {
		return fmt.Errorf("fleet: Roll needs an Upgrade hook")
	}
	if hooks.ReadyTimeout <= 0 {
		hooks.ReadyTimeout = 30 * time.Second
	}
	for i, be := range p.bes {
		if err := p.rollOne(ctx, be, hooks); err != nil {
			return fmt.Errorf("fleet: rolling backend %d (%s): %w", i, be.url, err)
		}
	}
	return nil
}

func (p *Pool) rollOne(ctx context.Context, be *backend, hooks RollHooks) error {
	// Never take the last eligible backend down: wait for the fleet to
	// have a second serving member (the previous backend readmitting,
	// typically) so the roll preserves availability end to end.
	if len(p.bes) > 1 {
		if err := p.waitOtherEligible(ctx, be, hooks.ReadyTimeout); err != nil {
			return err
		}
	}

	// Out of rotation first (new fleet requests skip it), then backend
	// drain (stragglers from other routers get 503 and fail over).
	be.admin.Store(true)
	readmit := false
	defer func() {
		if !readmit {
			be.admin.Store(false)
		}
	}()
	hooks.log("drain %s", be.url)
	if err := p.postAdmin(ctx, be, "drain"); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	hooks.log("upgrade %s", be.url)
	upErr := hooks.Upgrade(ctx, be.url)
	if upErr == nil {
		upErr = p.refill(ctx, be, hooks)
	}
	if upErr != nil {
		if hooks.Rollback == nil {
			be.admin.Store(true)
			readmit = true // keep it held out; deliberate
			return fmt.Errorf("upgrade failed with no rollback hook, backend held out of rotation: %w", upErr)
		}
		hooks.log("rollback %s after: %v", be.url, upErr)
		if err := hooks.Rollback(ctx, be.url); err != nil {
			be.admin.Store(true)
			readmit = true
			return fmt.Errorf("rollback after %v: %w", upErr, err)
		}
		if err := p.refill(ctx, be, hooks); err != nil {
			be.admin.Store(true)
			readmit = true
			return fmt.Errorf("rolled-back backend failed verification after %v: %w", upErr, err)
		}
		// The backend serves again on its old version; readmit it but
		// report the halt — the operator decides what happens next.
		be.admin.Store(false)
		return fmt.Errorf("upgrade rolled back: %w", upErr)
	}

	hooks.log("readmit %s", be.url)
	be.admin.Store(false)
	readmit = true
	return nil
}

// refill brings a drained backend back to serving: undrain, wait for
// ready, verify. The pool still holds it out of rotation throughout
// (be.admin), so verification traffic is the only load it sees.
func (p *Pool) refill(ctx context.Context, be *backend, hooks RollHooks) error {
	if err := p.postAdmin(ctx, be, "undrain"); err != nil {
		return fmt.Errorf("undrain: %w", err)
	}
	if err := p.waitReady(ctx, be, hooks.ReadyTimeout); err != nil {
		return err
	}
	if hooks.Verify != nil {
		if err := hooks.Verify(ctx, be.url); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	return nil
}

func (p *Pool) postAdmin(ctx context.Context, be *backend, verb string) error {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", be.url+"/admin/"+verb, nil)
	if err != nil {
		return err
	}
	res, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	io.Copy(io.Discard, io.LimitReader(res.Body, 1<<16))
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s/admin/%s: status %d", be.url, verb, res.StatusCode)
	}
	return nil
}

// waitReady polls the backend's own /healthz until it reports ready.
func (p *Pool) waitReady(ctx context.Context, be *backend, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		state := p.probeOnce(ctx, be)
		if state == "ready" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backend not ready after %v (last state %q)", timeout, state)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(p.cfg.Probe / 2):
		}
	}
}

// waitOtherEligible blocks until some other backend is eligible, so
// draining this one cannot black out the fleet.
func (p *Pool) waitOtherEligible(ctx context.Context, be *backend, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, other := range p.bes {
			if other != be && other.eligible() {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no other eligible backend after %v; refusing to drain the last one", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(p.cfg.Probe / 2):
		}
	}
}

// probeOnce is a synchronous single probe used by the roller's waits
// (the background loop keeps its own cadence).
func (p *Pool) probeOnce(ctx context.Context, be *backend) string {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", be.url+"/healthz", nil)
	if err != nil {
		return "unreachable"
	}
	res, err := p.client.Do(req)
	if err != nil {
		return "unreachable"
	}
	defer res.Body.Close()
	var body healthzBody
	if err := json.NewDecoder(io.LimitReader(res.Body, 1<<16)).Decode(&body); err != nil || body.Status == "" {
		return "unreachable"
	}
	return body.Status
}

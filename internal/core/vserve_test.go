package core

import (
	"strings"
	"testing"
)

func TestRunExperimentVirtualSessions(t *testing.T) {
	cfg := tinyScale().base()
	cfg.VirtualSessions = 300
	cfg.SessionCap = 25
	cfg.SessionChurn = "churn:10"
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Clients
	if v == nil {
		t.Fatal("virtual run produced no serving stats")
	}
	if out.Queries != nil {
		t.Fatal("virtual run produced query stats")
	}
	if v.Sessions != 300 {
		t.Fatalf("sessions = %d, want 300", v.Sessions)
	}
	if v.MeanFidelity <= 0 || v.MeanFidelity > 1 {
		t.Fatalf("mean fidelity %v out of range", v.MeanFidelity)
	}
	if v.Delivered == 0 {
		t.Fatal("no client deliveries")
	}
	if v.Departures == 0 {
		t.Fatal("churn plan executed no departures")
	}
	if v.BytesPerSession <= 0 || v.BytesPerSession > 512 {
		t.Fatalf("bytes/session = %.0f, want in (0, 512]", v.BytesPerSession)
	}
}

func TestRunExperimentVirtualFlash(t *testing.T) {
	cfg := tinyScale().base()
	cfg.VirtualSessions = 300
	cfg.SessionCap = 25
	cfg.Scenario = "flash:at=0.3,frac=0.5,burst=0.2"
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Clients
	if v == nil {
		t.Fatal("virtual run produced no serving stats")
	}
	if v.Arrivals != 150 {
		t.Fatalf("arrivals = %d, want the whole crowd (150)", v.Arrivals)
	}
	if v.Resyncs == 0 {
		t.Fatal("flash arrivals triggered no resyncs")
	}
}

func TestRunExperimentVirtualRegional(t *testing.T) {
	cfg := tinyScale().base()
	cfg.VirtualSessions = 200
	cfg.Scenario = "regional:at=0.4,frac=0.3,rejoin=0.7"
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resilience == nil {
		t.Fatal("regional scenario did not route through the resilient runner")
	}
	v := out.Clients
	if v == nil {
		t.Fatal("virtual run produced no serving stats")
	}
	if v.Migrations == 0 && v.Orphaned == 0 {
		t.Fatal("regional failure moved no sessions")
	}
}

func TestConfigVirtualValidation(t *testing.T) {
	base := tinyScale().base()
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative", func(c *Config) { c.VirtualSessions = -1 }, "negative virtual"},
		{"with-clients", func(c *Config) { c.VirtualSessions = 10; c.Clients = 10 }, "mutually exclusive"},
		{"with-queries", func(c *Config) { c.VirtualSessions = 10; c.Queries = []string{"avg(w=5;ITEM000)@0.05"} }, "mutually exclusive"},
		{"scenario-alone", func(c *Config) { c.Scenario = "flash" }, "needs VirtualSessions"},
		{"bad-scenario", func(c *Config) { c.VirtualSessions = 10; c.Scenario = "storm" }, "scenario"},
	} {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	cfg := base
	cfg.VirtualSessions = 10
	cfg.Scenario = "flash:at=0.3"
	cfg.SessionChurn = "churn:5"
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid virtual config rejected: %v", err)
	}
}

func TestVServeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	for _, id := range []string{"vserve-scale", "vserve-flash"} {
		fig, err := Figures()[id](tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range fig.Rows {
			if len(row) != len(fig.Header) {
				t.Fatalf("%s row width %d != header %d", id, len(row), len(fig.Header))
			}
		}
	}
}

package experiments

import (
	"strings"
	"testing"
)

func TestConfigScaling(t *testing.T) {
	c := Config{Scale: 0.5}
	if c.n(1000) != 500 {
		t.Errorf("n(1000) = %d", c.n(1000))
	}
	if c.n(10) != 500 {
		t.Errorf("floor: n(10) = %d", c.n(10))
	}
	if got := (Config{}).n(1000); got != 1000 {
		t.Errorf("a zero Scale is full size: n(1000) = %d", got)
	}
	if got := c.options(Sampled).SampleSize; got != 50000 {
		t.Errorf("the sample cap scales with the data: %d", got)
	}
}

func TestSelect(t *testing.T) {
	for _, c := range []struct {
		spec, want, wantErr string
	}{
		{spec: "all", want: "table1 fig6 fig8 fig9 fig10 fig11 fig12 usecases backdoor howto-quality ablation"},
		{spec: "fig10, table1", want: "table1 fig10"},
		{spec: "all,fig8", want: "table1 fig6 fig8 fig9 fig10 fig11 fig12 usecases backdoor howto-quality ablation"},
		{spec: "table1,fig99", wantErr: `unknown experiment "fig99"; known: table1, fig6,`},
		{spec: "", wantErr: `unknown experiment ""`},
	} {
		got, err := Select(c.spec)
		var names []string
		for _, e := range got {
			names = append(names, e.Name)
		}
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) || got != nil {
				t.Errorf("Select(%q) = %v, %v; want an error containing %q", c.spec, names, err, c.wantErr)
			}
		} else if err != nil || strings.Join(names, " ") != c.want {
			t.Errorf("Select(%q) = %v, %v; want %s", c.spec, names, err, c.want)
		}
	}
}

package solve

import (
	"bytes"
	"testing"

	"secureview/internal/gen"
	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/secureview"
	"secureview/internal/spec"
	"secureview/internal/wire"
	"secureview/internal/workflow"
)

func identityWorkflow(t *testing.T, ins, outs []string) *workflow.Workflow {
	t.Helper()
	w, err := workflow.New("fp", module.Identity("m", ins, outs))
	if err != nil {
		t.Fatalf("workflow: %v", err)
	}
	return w
}

// fullKey is the full (cost-inclusive) cache key alone.
func fullKey(w *workflow.Workflow, v secureview.Variant, gamma uint64,
	costs privacy.Costs, privatizeCosts map[string]float64) string {
	full, _ := workflowKeys(w, v, gamma, costs, privatizeCosts)
	return full
}

// specInstanceFingerprint resolves a one-module spec document (a constant
// module over the given boolean inputs) and fingerprints the instance.
func specInstanceFingerprint(t *testing.T, inputs ...string) string {
	t.Helper()
	doc := &spec.Document{Name: "fp", Modules: []spec.Module{{
		Name: "m", Kind: "constant", Value: []int{1},
		Outputs: []spec.Attr{{Name: "z", Domain: 2}},
	}}}
	for _, in := range inputs {
		doc.Modules[0].Inputs = append(doc.Modules[0].Inputs, spec.Attr{Name: in, Domain: 2})
	}
	rv, err := gen.Resolve(gen.InstanceRef{Spec: doc})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := rv.Instance.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestWorkflowKeyAdversarialNames is the regression test for the delimiter
// collisions: before length-prefixing, the Session key serialized cost
// entries as "c:<name>=<value>;" and privatize entries as
// "p:<name>=<value>;", so a name containing those delimiter bytes could
// replay another request's byte stream and silently share its cache entry
// — serving a derived problem for the WRONG cost assignment. Each pair below collided under
// some earlier encoding (delimiters, or fmt's %v printing []string{"a b"}
// and {"a", "b"} alike); every identity now goes through the wire
// appenders, whose length prefixes bound every string, so the keys must
// differ.
func TestWorkflowKeyAdversarialNames(t *testing.T) {
	w := identityWorkflow(t, []string{"a", "b"}, []string{"y", "z"})

	t.Run("problem input split by a space", func(t *testing.T) {
		// %v printed both input lists as [a b].
		p1 := &secureview.Problem{Modules: []secureview.ModuleSpec{{Name: "m", Inputs: []string{"a b"}, Outputs: []string{"z"}}}}
		p2 := &secureview.Problem{Modules: []secureview.ModuleSpec{{Name: "m", Inputs: []string{"a", "b"}, Outputs: []string{"z"}}}}
		if bytes.Equal(p1.AppendBinary(nil), p2.AppendBinary(nil)) {
			t.Fatal("problems with inputs [a b] and [a, b] encode alike")
		}
		if ProblemFingerprint(p1, secureview.Set) == ProblemFingerprint(p2, secureview.Set) {
			t.Fatal("problems with inputs [a b] and [a, b] share a fingerprint")
		}
	})

	t.Run("spec-built instances with the same split of names", func(t *testing.T) {
		if specInstanceFingerprint(t, "a b") == specInstanceFingerprint(t, "a", "b") {
			t.Fatal("spec instances with inputs [a b] and [a, b] share a fingerprint")
		}
		if specInstanceFingerprint(t, "a:2,b") == specInstanceFingerprint(t, "a", "b") {
			t.Fatal("an attribute name forging a second name:domain pair collides")
		}
	})

	t.Run("same payload under two domain tags", func(t *testing.T) {
		payload := wire.AppendStrings(nil, []string{"a", "b"})
		if wire.Fingerprint("solve/warm/v2", payload) == wire.Fingerprint("solve/oracle/v3", payload) {
			t.Fatal("one payload under two tags shares a fingerprint")
		}
		if wire.Fingerprint("ab", []byte("c")) == wire.Fingerprint("a", []byte("bc")) {
			t.Fatal("tag and payload bytes shift across their boundary")
		}
	})

	t.Run("cost name forging a second cost entry", func(t *testing.T) {
		// Old encoding: both serialize the cost section as "c:a=1;c:b=1;".
		k1 := fullKey(w, secureview.Set, 2, privacy.Costs{"a=1;c:b": 1}, nil)
		k2 := fullKey(w, secureview.Set, 2, privacy.Costs{"a": 1, "b": 1}, nil)
		if k1 == k2 {
			t.Fatal("cost maps {a=1;c:b: 1} and {a: 1, b: 1} share a fingerprint")
		}
	})

	t.Run("cost name forging a privatize entry across the section boundary", func(t *testing.T) {
		// Old encoding: both serialize as "c:a=1;p:m=1;" — a hiding cost
		// masquerading as a privatization cost.
		k1 := fullKey(w, secureview.Set, 2, privacy.Costs{"a=1;p:m": 1}, nil)
		k2 := fullKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, map[string]float64{"m": 1})
		if k1 == k2 {
			t.Fatal("a cost-name injection reaches into the privatize section")
		}
	})

	t.Run("attribute names shifting the input list", func(t *testing.T) {
		// "a;i" as one input vs "a" and "i" as two: the old per-name
		// encoding made both input sections read "i:a;i:...", relying on
		// the schema and row sections to disagree. Length prefixes make
		// the input lists themselves injective.
		w1 := identityWorkflow(t, []string{"a;i"}, []string{"z"})
		w2 := identityWorkflow(t, []string{"a", "i"}, []string{"z", "z2"})
		k1 := fullKey(w1, secureview.Set, 2, privacy.Costs{}, nil)
		k2 := fullKey(w2, secureview.Set, 2, privacy.Costs{}, nil)
		if k1 == k2 {
			t.Fatal("input lists [a;i] and [a i] share a fingerprint")
		}
	})

	t.Run("attribute name forging a schema entry", func(t *testing.T) {
		// "a=2;d:b" with domain 2 serialized, under the old encoding, to
		// the same schema section as two boolean attributes a and b.
		w1 := identityWorkflow(t, []string{"a=2;d:b"}, []string{"z"})
		w2 := identityWorkflow(t, []string{"a", "b"}, []string{"z", "z2"})
		k1 := fullKey(w1, secureview.Set, 2, privacy.Costs{}, nil)
		k2 := fullKey(w2, secureview.Set, 2, privacy.Costs{}, nil)
		if k1 == k2 {
			t.Fatal("schema sections collide through an = injection")
		}
	})

	t.Run("distinct requests still get distinct keys", func(t *testing.T) {
		keys := map[string]string{}
		add := func(label, k string) {
			if prev, dup := keys[k]; dup {
				t.Fatalf("%s collides with %s", label, prev)
			}
			keys[k] = label
		}
		add("set/2", fullKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, nil))
		add("card/2", fullKey(w, secureview.Cardinality, 2, privacy.Costs{"a": 1}, nil))
		add("set/3", fullKey(w, secureview.Set, 3, privacy.Costs{"a": 1}, nil))
		add("set/2/cost2", fullKey(w, secureview.Set, 2, privacy.Costs{"a": 2}, nil))
		add("set/2/priv", fullKey(w, secureview.Set, 2, privacy.Costs{"a": 1}, map[string]float64{"m": 1}))
	})

	t.Run("key is stable across calls", func(t *testing.T) {
		c := privacy.Costs{"a": 1.5, "b": 2.5}
		p := map[string]float64{"m": 3}
		if fullKey(w, secureview.Set, 2, c, p) != fullKey(w, secureview.Set, 2, c, p) {
			t.Fatal("the Session key is not deterministic")
		}
	})
}

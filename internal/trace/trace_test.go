package trace

import (
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
)

const branchy = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 1
	syscall
	mov al, [rip+buf]
	cmp al, 'y'
	jne no
yes:
	mov rax, 60
	mov rdi, 0
	syscall
no:
	mov rax, 60
	mov rdi, 1
	syscall
.bss
buf: .zero 1
`

func TestCaptureAndSites(t *testing.T) {
	bin, err := asm.Assemble(branchy, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(bin, []byte("y"), 0)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if tr.Result.ExitCode != 0 {
		t.Fatalf("exit = %d", tr.Result.ExitCode)
	}
	if tr.Len() != 11 {
		t.Errorf("trace length = %d, want 11", tr.Len())
	}
	if len(tr.Sites()) != tr.Len() {
		t.Errorf("straight-line run: sites %d != len %d", len(tr.Sites()), tr.Len())
	}
}

func TestSitesDedupInLoop(t *testing.T) {
	src := `
.text
_start:
	mov rcx, 5
loop:
	dec rcx
	jne loop
	mov rax, 60
	mov rdi, 0
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(bin, nil, 0)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	// 1 + 5*2 + 3 = 14 executed, but only 6 unique addresses.
	if tr.Len() != 14 {
		t.Errorf("trace length = %d, want 14", tr.Len())
	}
	if got := len(tr.Sites()); got != 6 {
		t.Errorf("unique sites = %d, want 6", got)
	}
}

func TestSummary(t *testing.T) {
	bin, err := asm.Assemble(branchy, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(bin, []byte("y"), 0)
	s := tr.Summary()
	if !strings.Contains(s, "instructions") || !strings.Contains(s, "exit") {
		t.Errorf("summary = %q", s)
	}
	// Crashing run.
	crash := Capture(bin, []byte("y"), 2) // step limit 2
	if crash.Err == nil {
		t.Fatal("expected step-limit crash")
	}
	if !strings.Contains(crash.Summary(), "crash") {
		t.Errorf("crash summary = %q", crash.Summary())
	}
}

// Package cases provides the paper's two case-study programs (§V-C):
//
//   - pincheck: reads a PIN from stdin, compares it against the stored
//     secret, and either grants access (running a "sensitive operation",
//     here: revealing a secret) or denies it;
//   - secure bootloader: reads a firmware image from stdin, hashes it
//     (FNV-1a 64, standing in for the paper's unspecified hash), compares
//     the digest against the expected value burned into the image, and
//     either boots or refuses.
//
// Both are written in this repository's assembler dialect and carry
// their good/bad input oracles, so every pipeline stage (faulter,
// patcher, hybrid) can validate hardened binaries against the same
// contract.
//
// Beyond the paper's pair, the corpus case studies (otpauth, fwupdate,
// crtsign — see corpus.go) extend the evaluation to more scenarios;
// every case is one row of the catalog table (catalog.go), and Corpus()
// returns the full set in the table's order.
package cases

import (
	"fmt"
	"hash/fnv"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// Case is a buildable case study with its behavioural oracle.
type Case struct {
	Name   string
	Source string

	Good []byte // accepted input
	Bad  []byte // rejected input

	GoodStdout string
	BadStdout  string
	GoodExit   int
	BadExit    int
}

// Build assembles the case study.
func (c *Case) Build() (*elf.Binary, error) {
	return asm.Assemble(c.Source, nil)
}

// MustBuild assembles or panics (the sources are compile-time constants).
func (c *Case) MustBuild() *elf.Binary {
	bin, err := c.Build()
	if err != nil {
		panic("cases: " + c.Name + ": " + err.Error())
	}
	return bin
}

// Check runs the binary against both oracles; any hardened or rewritten
// variant of the case study must still pass.
func (c *Case) Check(bin *elf.Binary) error {
	checks := []struct {
		in   []byte
		out  string
		code int
	}{
		{c.Good, c.GoodStdout, c.GoodExit},
		{c.Bad, c.BadStdout, c.BadExit},
	}
	for _, tc := range checks {
		res, err := emu.New(bin, emu.Config{Stdin: tc.in, StepLimit: 32 << 20}).Run()
		if err != nil {
			return fmt.Errorf("cases: %s: input %q crashed: %w", c.Name, tc.in, err)
		}
		if string(res.Stdout) != tc.out || res.ExitCode != tc.code {
			return fmt.Errorf("cases: %s: input %q: got (%q, %d), want (%q, %d)",
				c.Name, tc.in, res.Stdout, res.ExitCode, tc.out, tc.code)
		}
	}
	return nil
}

// Pincheck returns the pin-checker case study with the default secret.
func Pincheck() *Case { return PincheckWith("7391-ACD") }

// PincheckWith builds a pincheck variant with a custom 8-byte PIN
// (property tests randomize it).
func PincheckWith(pin string) *Case {
	if len(pin) != 8 {
		panic("cases: pin must be exactly 8 bytes")
	}
	bad := []byte("00000000")
	if string(bad) == pin {
		bad = []byte("11111111")
	}
	src := fmt.Sprintf(`
; pincheck — reads an 8-byte PIN and guards a sensitive operation.
.text
.global _start
_start:
	mov rax, 0                 ; read(0, pin_buf, 8)
	mov rdi, 0
	lea rsi, [rip+pin_buf]
	mov rdx, 8
	syscall
	cmp rax, 8                 ; short read is an immediate denial
	jne deny
	mov rax, [rip+pin_buf]     ; attacker-controlled PIN
	mov rbx, [rip+secret_pin]  ; reference PIN
	cmp rax, rbx
	jne deny
grant:
	mov rax, 1                 ; write(1, msg_granted, ...)
	mov rdi, 1
	lea rsi, [rip+msg_granted]
	mov rdx, msg_granted_len
	syscall
	mov rax, 1                 ; the sensitive operation: reveal secret
	mov rdi, 1
	lea rsi, [rip+msg_secret]
	mov rdx, msg_secret_len
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg_denied]
	mov rdx, msg_denied_len
	syscall
	mov rax, 60
	mov rdi, 1
	syscall
.rodata
secret_pin:  .ascii "%s"
msg_granted: .ascii "ACCESS GRANTED\n"
.equ msg_granted_len, . - msg_granted
msg_secret:  .ascii "launch code: 1202\n"
.equ msg_secret_len, . - msg_secret
msg_denied:  .ascii "ACCESS DENIED\n"
.equ msg_denied_len, . - msg_denied
.bss
pin_buf: .zero 8
`, pin)
	return &Case{
		Name:       "pincheck",
		Source:     src,
		Good:       []byte(pin),
		Bad:        bad,
		GoodStdout: "ACCESS GRANTED\nlaunch code: 1202\n",
		BadStdout:  "ACCESS DENIED\n",
		GoodExit:   0,
		BadExit:    1,
	}
}

// FirmwareSize is the bootloader's image size.
const FirmwareSize = 64

// GoodFirmware is the release image the bootloader accepts.
func GoodFirmware() []byte {
	fw := make([]byte, FirmwareSize)
	copy(fw, "RELEASE-FW v4.2 ")
	for i := 16; i < FirmwareSize; i++ {
		fw[i] = byte(0x40 + i*7%26) // deterministic filler "code"
	}
	return fw
}

// BadFirmware is a tampered image (one payload byte patched).
func BadFirmware() []byte {
	fw := GoodFirmware()
	fw[40] ^= 0x01
	return fw
}

// FNV1a64 is the digest the bootloader computes (stdlib reference
// implementation; the assembly below re-implements it).
func FNV1a64(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Bootloader returns the secure-bootloader case study: hash-verified
// firmware loading (paper §V-C: "the hash of the content of a memory
// location is calculated and compared with an expected hash value").
func Bootloader() *Case {
	expected := FNV1a64(GoodFirmware())
	src := fmt.Sprintf(`
; secure bootloader — verifies firmware by hash before launching it.
.text
.global _start
_start:
	mov rax, 0                 ; read(0, fw_buf, FW_SIZE) — "flash load"
	mov rdi, 0
	lea rsi, [rip+fw_buf]
	mov rdx, %d
	syscall
	cmp rax, %d                ; incomplete image -> refuse
	jne fail
	; FNV-1a 64 over the image
%s
	cmp rax, [rip+expected_hash]
	jne fail
boot:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg_ok]
	mov rdx, msg_ok_len
	syscall
	mov rax, 1                 ; the privileged action: jump to firmware
	mov rdi, 1
	lea rsi, [rip+msg_launch]
	mov rdx, msg_launch_len
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
fail:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg_bad]
	mov rdx, msg_bad_len
	syscall
	mov rax, 60
	mov rdi, 1
	syscall
.rodata
expected_hash: .quad %d
msg_ok:     .ascii "BOOT OK\n"
.equ msg_ok_len, . - msg_ok
msg_launch: .ascii "launching firmware\n"
.equ msg_launch_len, . - msg_launch
msg_bad:    .ascii "BOOT FAIL: bad firmware hash\n"
.equ msg_bad_len, . - msg_bad
.bss
fw_buf: .zero %d
`, FirmwareSize, FirmwareSize,
		fnvLoop(0xcbf29ce484222325, "fw_buf", FirmwareSize, "hash_loop"),
		int64(expected), FirmwareSize)
	return &Case{
		Name:       "bootloader",
		Source:     src,
		Good:       GoodFirmware(),
		Bad:        BadFirmware(),
		GoodStdout: "BOOT OK\nlaunching firmware\n",
		BadStdout:  "BOOT FAIL: bad firmware hash\n",
		GoodExit:   0,
		BadExit:    1,
	}
}

// All returns the paper's two case studies (§V-C). The full catalog
// corpus — these two plus the beyond-the-paper cases — is Corpus().
func All() []*Case {
	return []*Case{Pincheck(), Bootloader()}
}

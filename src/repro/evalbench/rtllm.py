"""RTLLM-style benchmark suite.

RTLLM contains 29 RTL design problems specified with free-form natural
language.  This module builds a 29-problem suite of the same format on top of
the in-repo simulator: every problem carries a free-form prompt (module name
and ports described in prose), a golden reference and a self-checking
testbench.  The problems span the combinational and sequential categories the
original benchmark covers (arithmetic, multiplexing, encoding, registers,
counters, FSMs, FIFOs).
"""

from __future__ import annotations

from repro.data.alpaca import INSTRUCTION_PREFIX
from repro.evalbench import designs
from repro.evalbench.problems import Problem, ProblemSuite, module_name_from_reference


def rtllm_suite() -> ProblemSuite:
    """Build the 29-problem RTLLM-style suite."""
    entries = [
        ("mux2to1_8", designs.mux2("mux2to1", width=8), "combinational"),
        ("mux4to1_8", designs.mux4("mux4to1", width=8), "combinational"),
        ("adder_8bit", designs.adder("adder_8bit", width=8, with_carry=True), "arithmetic"),
        ("adder_16bit", designs.adder("adder_16bit", width=16, with_carry=True), "arithmetic"),
        ("adder_nocarry_8", designs.adder("simple_adder", width=8, with_carry=False), "arithmetic"),
        ("subtractor_8bit", designs.subtractor("subtractor_8bit", width=8), "arithmetic"),
        ("alu_8bit", designs.alu("alu", width=8), "arithmetic"),
        ("comparator_8bit", designs.comparator("comparator_8bit", width=8), "combinational"),
        ("decoder_3to8", designs.decoder("decoder3to8", in_width=3), "combinational"),
        ("decoder_2to4", designs.decoder("decoder2to4", in_width=2), "combinational"),
        ("priority_encoder", designs.priority_encoder("priority_encoder"), "combinational"),
        ("bin2gray_8", designs.gray_converter("bin2gray", width=8), "combinational"),
        ("parity_even_8", designs.parity_generator("parity_gen", width=8, odd=False), "combinational"),
        ("barrel_shifter_8", designs.barrel_shifter("barrel_shifter", width=8), "combinational"),
        ("half_adder", designs.half_adder("half_adder"), "arithmetic"),
        ("full_adder", designs.full_adder("full_adder"), "arithmetic"),
        ("abs_value_8", designs.absolute_value("abs_value", width=8), "arithmetic"),
        ("min_max_8", designs.min_max("min_max", width=8), "combinational"),
        ("data_register_4", designs.data_register("data_register", width=4), "sequential"),
        ("dff_async_rst", designs.dff("dff", with_reset=True), "sequential"),
        ("t_flip_flop", designs.t_flip_flop("t_ff"), "sequential"),
        ("up_counter_4", designs.counter("up_counter", width=4, down=False), "sequential"),
        ("down_counter_4", designs.counter("down_counter", width=4, down=True), "sequential"),
        ("shift_register_4", designs.shift_register("shift_register", width=4), "sequential"),
        ("edge_detector", designs.edge_detector("edge_detector", falling=False), "sequential"),
        ("ctrl_fsm", designs.simple_fsm("ctrl_fsm"), "sequential"),
        ("ring_counter_4", designs.ring_counter("ring_counter", width=4), "sequential"),
        ("accumulator_8", designs.accumulator("accumulator", width=8), "sequential"),
        ("sync_fifo_4x8", designs.fifo("sync_fifo", depth=4, width=8), "sequential"),
    ]
    problems = []
    for name, (prompt, reference, testbench), category in entries:
        problems.append(
            Problem(
                name=name,
                prompt=INSTRUCTION_PREFIX + prompt,
                reference=reference,
                testbench=testbench,
                module_name=module_name_from_reference(reference),
                category=category,
            )
        )
    return ProblemSuite(name="RTLLM", problems=problems)
